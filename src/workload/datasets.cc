#include "src/workload/datasets.h"

namespace loggrep {
namespace {

// ---- VarSpec builders ------------------------------------------------------

VarSpec Ts() {
  VarSpec v;
  v.kind = VarKind::kTimestamp;
  return v;
}

VarSpec Hex(int len, std::string prefix = "", int shared = 0) {
  VarSpec v;
  v.kind = VarKind::kHexId;
  v.len = len;
  v.prefix = std::move(prefix);
  v.shared = shared;
  return v;
}

VarSpec Dec(int64_t min, int64_t max, bool zero_pad = false) {
  VarSpec v;
  v.kind = VarKind::kDecimal;
  v.min = min;
  v.max = max;
  v.zero_pad = zero_pad;
  return v;
}

VarSpec Ip() {
  VarSpec v;
  v.kind = VarKind::kIpAddr;
  return v;
}

VarSpec Path(std::string root, std::vector<std::string> words,
             std::string ext) {
  VarSpec v;
  v.kind = VarKind::kPath;
  v.prefix = std::move(root);
  v.values = std::move(words);
  v.min = 0;
  v.max = 9999;
  v.suffix = std::move(ext);
  return v;
}

VarSpec En(std::vector<std::string> values, std::vector<double> weights = {}) {
  VarSpec v;
  v.kind = VarKind::kEnum;
  v.values = std::move(values);
  v.weights = std::move(weights);
  return v;
}

VarSpec Uuid() {
  VarSpec v;
  v.kind = VarKind::kUuid;
  return v;
}

VarSpec Seq(int64_t base = 100000) {
  VarSpec v;
  v.kind = VarKind::kSeq;
  v.min = base;
  return v;
}

TemplateSpec T(std::string format, std::vector<VarSpec> vars, double weight = 1.0) {
  TemplateSpec t;
  t.format = std::move(format);
  t.vars = std::move(vars);
  t.weight = weight;
  return t;
}

VarSpec Level() {
  return En({"INFO", "WARN", "ERROR"}, {0.90, 0.07, 0.03});
}

// ---- Production datasets (Log A .. Log U) ---------------------------------
//
// Modeled on the workload sketches in the paper: storage/RPC/trace services
// with request ids, chunk ids, IPs, project/logstore identifiers, state
// enums, and rare error templates that the Table 1 queries target.
//
// Production logs carry many templates (the paper's services emit hundreds);
// AddServiceChatter mixes in generic INFO/DEBUG traffic so no single group
// dominates a block the way a two-template toy log would.

void AddServiceChatter(DatasetSpec& spec) {
  spec.templates.push_back(
      T("{} DEBUG rpc call {} to {} took {}us",
        {Ts(), En({"Append", "Open", "Seal", "Stat", "List"}), Ip(),
         Dec(20, 90000)},
        0.25));
  spec.templates.push_back(
      T("{} INFO conn accepted from {}:{} session {}",
        {Ts(), Ip(), Dec(10000, 65000), Hex(12)}, 0.2));
  spec.templates.push_back(
      T("{} INFO conn closed session {} bytes_in {} bytes_out {}",
        {Ts(), Hex(12), Dec(0, 1 << 24), Dec(0, 1 << 24)}, 0.2));
  spec.templates.push_back(
      T("{} DEBUG threadpool {} queue {} active {} completed {}",
        {Ts(), En({"io", "rpc", "flush", "bg"}), Dec(0, 512), Dec(0, 64),
         Seq(1000000)},
        0.2));
  spec.templates.push_back(
      T("{} INFO checkpoint {} flushed {} entries in {}ms",
        {Ts(), Seq(88000), Dec(1, 100000), Dec(1, 30000)}, 0.15));
  spec.templates.push_back(
      T("{} DEBUG cache stats hit {} miss {} evict {}",
        {Ts(), Dec(0, 1 << 20), Dec(0, 1 << 16), Dec(0, 1 << 12)}, 0.15));
  spec.templates.push_back(
      T("{} INFO lease renewed holder {} epoch {} ttl {}s",
        {Ts(), Uuid(), Dec(1, 500), Dec(5, 120)}, 0.1));
  spec.templates.push_back(
      T("{} DEBUG gossip peer {} version {} lag {}ms",
        {Ts(), Ip(), Dec(100000, 999999), Dec(0, 2000)}, 0.1));
  // Heterogeneous-form fields: a retry-reason token whose values follow
  // several distinct runtime patterns (the paper's multi-pattern nominal
  // vectors, Fig. 3), and a variable-length path (length variance, §2.2).
  spec.templates.push_back(
      T("{} WARN op retried reason {} attempt {}",
        {Ts(),
         En({"-", "EAGAIN", "err=110", "0x7FFF", "conn_reset",
             "disk/slow", "err=5", "0x00A1", "lease_lost", "EBUSY"}),
         Dec(1, 5)},
        0.15));
  spec.templates.push_back(
      T("{} INFO flushed segment {} bytes {}",
        {Ts(),
         Path("/data/vol0/",
              {"seg", "segment_long_name", "s", "idx", "manifest_part"},
              ".dat"),
         Dec(100, 99999999)},
        0.15));
  // A fat nominal field (long values, tiny cardinality): client identity
  // strings. Dictionary + index encoding pays off most on vectors like this
  // (§4.2); the "w/o nomi" ablation must scan the full column instead.
  spec.templates.push_back(
      T("{} INFO api request client {} status {}",
        {Ts(),
         En({"sdk-java/2.14.1-linux-openjdk-11.0.2-x86_64-prod-cell-a",
             "sdk-java/2.14.1-linux-openjdk-11.0.2-x86_64-prod-cell-b",
             "sdk-go/1.44.9-linux-go1.17.8-amd64-batch-import-pipeline",
             "sdk-python/3.8.2-cpython-3.9.7-manylinux2014-analytics",
             "console-web/react-18.2.0-chrome-102.0.5005.63-dashboard",
             "cli/0.9.31-darwin-arm64-interactive-operator-session"}),
         En({"200", "200", "200", "206", "403", "500"})},
        0.35));
}

std::vector<DatasetSpec> BuildProduction() {
  std::vector<DatasetSpec> out;

  out.push_back(DatasetSpec{
      "Log A", true,
      {
          T("[{}] INFO req accepted state:{} code:{} reqId:{}",
            {Ts(), En({"REQ_ST_OPEN", "REQ_ST_READY"}), Dec(20000, 20020),
             Hex(16, "5E9D", 0)},
            0.93),
          T("[{}] ERROR req aborted state:{} code:{} reqId:{}",
            {Ts(), En({"REQ_ST_CLOSED", "REQ_ST_TIMEOUT"}), Dec(20000, 20020),
             Hex(16, "5E9D", 0)},
            0.05),
          T("[{}] INFO heartbeat from {} seq:{}", {Ts(), Ip(), Seq()}, 0.02),
      },
      11});

  out.push_back(DatasetSpec{
      "Log B", true,
      {
          T("[{}] INFO Project:{} RequestId:{} latency:{}us",
            {Ts(), Dec(1000, 4000), Hex(15, "5EA6", 0), Dec(10, 90000)}, 0.95),
          T("[{}] ERROR Project:{} RequestId:{} quota exceeded",
            {Ts(), Dec(1000, 4000), Hex(15, "5EA6", 0)}, 0.04),
          T("[{}] WARN slow scan Project:{} rows:{}",
            {Ts(), Dec(1000, 4000), Dec(100000, 9000000)}, 0.01),
      },
      12});

  out.push_back(DatasetSpec{
      "Log C", true,
      {
          T("{} {} worker {} finished job {} in {}ms",
            {Ts(), Level(), Dec(0, 63), Uuid(), Dec(1, 60000)}, 0.97),
          T("{} ERROR worker {} job {} failed: disk quota",
            {Ts(), Dec(0, 63), Uuid()}, 0.03),
      },
      13});

  out.push_back(DatasetSpec{
      "Log D", true,
      {
          T("{} meter project_id:{} logstore:{} inflow:{} outflow:{}",
            {Ts(), Dec(30000, 31000), En({"res_p", "res_q", "acc_m", "acc_n"}),
             Dec(0, 80), Dec(0, 80)},
            1.0),
      },
      14});

  out.push_back(DatasetSpec{
      "Log E", true,
      {
          T("{} shard report project:{} logstore:{} shard:{} wcount:{} rcount:{}",
            {Ts(), Dec(100, 200), En({"app_ay87a", "app_ay87b", "sys_ay90c"}),
             Dec(0, 127), Dec(0, 40), Dec(0, 40)},
            1.0),
      },
      15});

  out.push_back(DatasetSpec{
      "Log F", true,
      {
          T("{} {} txn UserId:{} op:{} took {}us",
            {Ts(), Level(), Dec(-2, 99999), En({"PUT", "GET", "DEL", "SCAN"}),
             Dec(5, 20000)},
            1.0),
      },
      16});

  out.push_back(DatasetSpec{
      "Log G", true,
      {
          T("[{}] INFO Operation:{} SATADiskId:{} From:tcp://{}:{} TraceId:{}",
            {Ts(), En({"ReadChunk", "WriteChunk", "SealChunk"}), Dec(0, 11),
             Ip(), Dec(10000, 65000), Hex(32, "", 4)},
            1.0),
      },
      17});

  out.push_back(DatasetSpec{
      "Log H", true,
      {
          T("{} {} gc pause {}ms heap {}MB", {Ts(), Level(), Dec(1, 900), Dec(512, 8192)},
            0.9),
          T("{} ERROR allocation stall tenant {}", {Ts(), Hex(8)}, 0.1),
      },
      18});

  out.push_back(DatasetSpec{
      "Log I", true,
      {
          T("{} WARNING replica lag {}s volume vol-{}",
            {Ts(), Dec(1, 600), Hex(10, "", 2)}, 0.25),
          T("{} INFO replica sync volume vol-{} bytes {}",
            {Ts(), Hex(10, "", 2), Dec(0, 1 << 30)}, 0.75),
      },
      19});

  out.push_back(DatasetSpec{
      "Log J", true,
      {
          T("{} TraceType:{} SectionType:{} CountAll:{} CountFail:{}",
            {Ts(), En({"PanguTraceSummary", "PanguTraceDetail"}),
             En({"RPC_SealAndNew", "RPC_Append", "RPC_Open"}), Dec(1, 5000),
             En({"0", "0", "0", "1", "2", "7"})},
            1.0),
      },
      20});

  out.push_back(DatasetSpec{
      "Log K", true,
      {
          T("{} {} {} /results/{} status {}",
            {Ts(), En({"GET", "PUT", "DELETE"}, {0.7, 0.2, 0.1}), Ip(),
             Dec(0, 30), En({"200", "200", "200", "204", "404", "500"})},
            1.0),
      },
      21});

  out.push_back(DatasetSpec{
      "Log L", true,
      {
          T("{} WARNING drop pkt Errorcode:{} Packet id:{}",
            {Ts(), En({"0", "1", "3"}), Seq(172000000)}, 0.2),
          T("{} INFO fwd pkt Packet id:{} nexthop {}",
            {Ts(), Seq(172000000), Ip()}, 0.8),
      },
      22});

  out.push_back(DatasetSpec{
      "Log M", true,
      {
          T("{} {} exchange-client-{} fetch /results/{} bytes {}",
            {Ts(), Level(), Dec(0, 31), Dec(0, 30), Dec(128, 1 << 22)},
            1.0),
      },
      23});

  out.push_back(DatasetSpec{
      "Log N", true,
      {
          T("{} {} billing project_id:{} cpu {}ms mem {}MB",
            {Ts(), Level(), Dec(51000, 52000), Dec(1, 10000), Dec(16, 4096)},
            1.0),
      },
      24});

  out.push_back(DatasetSpec{
      "Log O", true,
      {
          T("{} error ingest ProjectId:{} shard {} backlog {}",
            {Ts(), Dec(2000, 2500), Dec(0, 255), Dec(0, 100000)}, 0.06),
          T("{} info ingest ProjectId:{} shard {} ok",
            {Ts(), Dec(2000, 2500), Dec(0, 255)}, 0.94),
      },
      25});

  out.push_back(DatasetSpec{
      "Log P", true,
      {
          T("{} ERROR ui action {} failed", {Ts(), En({"CLICK_SAVE_ERROR", "CLICK_LOAD_ERROR"})},
            0.02),
          T("{} INFO ui action {} user {}",
            {Ts(), En({"CLICK_SAVE", "CLICK_LOAD", "CLICK_OPEN"}), Hex(12)},
            0.98),
      },
      26});

  out.push_back(DatasetSpec{
      "Log Q", true,
      {
          T("{} {} PostLogStoreLogsHandler.cpp:{} Time:{} count:{}",
            {Ts(), Level(), Dec(100, 900), Seq(1622000000), Dec(1, 4096)},
            1.0),
      },
      27});

  out.push_back(DatasetSpec{
      "Log R", true,
      {
          T("{} ERROR part_id:{} request id REQ_{} failed retries {}",
            {Ts(), Dec(500, 520), Ip(), Dec(0, 5)}, 0.04),
          T("{} INFO part_id:{} request id REQ_{} ok",
            {Ts(), Dec(500, 520), Ip()}, 0.96),
      },
      28});

  out.push_back(DatasetSpec{
      "Log S", true,
      {
          T("Aug 30 {} host{} sudo: user{} : TTY=unknown ; PWD=/ ; COMMAND={}",
            {En({"10:01:22", "10:03:17", "10:14:55", "11:22:01"}), Dec(1, 40),
             Dec(100, 160),
             En({"/etc/init.d/ilogtaild", "/usr/bin/uptime", "/bin/ls"})},
            1.0),
      },
      29});

  out.push_back(DatasetSpec{
      "Log T", true,
      {
          T("{} {} scan table {} rows {} cost {}us",
            {Ts(), Level(), Hex(8, "tbl_"), Dec(0, 1 << 20), Dec(10, 1 << 20)},
            0.98),
          T("{} ERROR scan {} aborted snapshot {}",
            {Ts(), Hex(8, "tbl_"), Dec(39000, 39999)}, 0.02),
      },
      30});

  out.push_back(DatasetSpec{
      "Log U", true,
      {
          T("{} {} compact level {} file {}_{}_{}_{}",
            {Ts(), Level(), Dec(0, 6), Seq(1618152650857662364), Dec(1, 9),
             Dec(149000000, 149999999), Dec(199000000, 199999999)},
            0.9),
          T("{} ERROR failed to read trie data file {}_{}",
            {Ts(), Seq(1618152650857662364), Dec(1, 9)}, 0.1),
      },
      31});

  for (DatasetSpec& spec : out) {
    AddServiceChatter(spec);
  }
  return out;
}

// ---- Public datasets (LogHub-style) ----------------------------------------

std::vector<DatasetSpec> BuildPublic() {
  std::vector<DatasetSpec> out;

  out.push_back(DatasetSpec{
      "Android", false,
      {
          T("{} {} {} D SensorManager: sensor {} rate {}",
            {Ts(), Dec(1000, 9999), Dec(1000, 9999), En({"accel", "gyro", "light"}),
             Dec(5, 200)},
            0.9),
          T("{} {} {} ERROR Socket: socket read length failure {}",
            {Ts(), Dec(1000, 9999), Dec(1000, 9999), Dec(-110, -100)}, 0.02),
      },
      41});

  out.push_back(DatasetSpec{
      "Apache", false,
      {
          T("[{}] [notice] workerEnv.init() ok /etc/httpd/conf/workers{}.properties",
            {Ts(), Dec(1, 9)}, 0.85),
          T("[{}] [error] mod_jk child workerEnv in error state {}",
            {Ts(), Dec(1, 9)}, 0.03),
          T("[{}] [error] Invalid URI in request GET {} HTTP/1.1",
            {Ts(), Path("/cgi-bin/", {"badapp", "probe", "scan"}, ".cgi")}, 0.01),
      },
      42});

  out.push_back(DatasetSpec{
      "Bgl", false,
      {
          T("- {} R{}-M{}-N{} RAS KERNEL INFO generating core.{}",
            {Seq(1117838570), Dec(0, 77, true), Dec(0, 1), Dec(0, 15), Dec(0, 4096)},
            0.9),
          T("- {} R{}-M{}-ND RAS KERNEL ERROR data TLB error interrupt",
            {Seq(1117838570), Dec(0, 77, true), Dec(0, 1)}, 0.02),
      },
      43});

  out.push_back(DatasetSpec{
      "Hadoop", false,
      {
          T("{} INFO [main] org.apache.hadoop.mapred.MapTask: Processing split {}",
            {Ts(), Dec(0, 4000)}, 0.9),
          T("{} ERROR [main] org.apache.hadoop.yarn.YarnUncaughtExceptionHandler: RECEIVED SIGNAL 15: SIGTERM",
            {Ts()}, 0.01),
      },
      44});

  out.push_back(DatasetSpec{
      "Hdfs", false,
      {
          T("{} INFO dfs.DataNode$PacketResponder: Received block blk_{} of size {} from /{}",
            {Ts(), Dec(8840000000000000000 / 1000000, 8849999999999, false),
             Dec(1024, 67108864), Ip()},
            0.92),
          T("{} error dfs.DataNode: writeBlock blk_{} received exception java.io.IOException",
            {Ts(), Dec(8840000000, 8849999999)}, 0.02),
      },
      45});

  out.push_back(DatasetSpec{
      "Healthapp", false,
      {
          T("{}|Step_ExtSDM|onExtend:{} {} {} totalAltitude={}",
            {Ts(), Dec(1000000, 2000000), Dec(0, 100), Dec(0, 100), Dec(0, 120)},
            0.25),
          T("{}|Step_LSC|onStandStepChanged {}",
            {Ts(), Dec(1000, 90000)}, 0.35),
          T("{}|Step_SPUtils|setTodayTotalDetailSteps={}",
            {Ts(), Dec(1000, 90000)}, 0.25),
          T("{}|Step_StandReportReceiver|onReceive:{}",
            {Ts(), Dec(1000000, 2000000)}, 0.15),
      },
      46});

  out.push_back(DatasetSpec{
      "Hpc", false,
      {
          T("{} node-{} unix.hw state_change.unavailable state HWID={}",
            {Seq(433490), Dec(0, 1023), Dec(3000, 3999)}, 0.3),
          T("{} node-{} unix.hw state_change.available state HWID={}",
            {Seq(433490), Dec(0, 1023), Dec(3000, 3999)}, 0.7),
      },
      47});

  out.push_back(DatasetSpec{
      "Linux", false,
      {
          T("{} combo sshd(pam_unix)[{}]: authentication failure; logname= uid=0 euid=0 tty=NODEVssh ruser= rhost={}",
            {Ts(), Dec(10000, 32000), En({"221.230.128.214", "218.188.2.4", "82.53.10.5"})},
            0.4),
          T("{} combo su(pam_unix)[{}]: session opened for user cyrus by (uid={})",
            {Ts(), Dec(10000, 32000), Dec(0, 0)}, 0.6),
      },
      48});

  out.push_back(DatasetSpec{
      "Mac", false,
      {
          T("{} authorMacBook-Pro kernel[0]: AirPort: Link Down on awdl0. Reason 1 (Unspecified).",
            {Ts()}, 0.5),
          T("{} authorMacBook-Pro corecaptured[{}]: CCFile::captureLogRun capture failed Skipping current file Err:{} Errno:{} No such file",
            {Ts(), Dec(30000, 50000), Dec(-2, -1), Dec(1, 2)}, 0.5),
      },
      49});

  out.push_back(DatasetSpec{
      "Openstack", false,
      {
          T("nova-compute.log {} {} INFO nova.compute.manager [instance: {}] VM Started",
            {Ts(), Dec(2000, 4000), Uuid()}, 0.7),
          T("nova-compute.log {} {} ERROR nova.compute.manager Unexpected error while running command: {}",
            {Ts(), Dec(2000, 4000), En({"qemu-img", "iptables-save", "mount"})},
            0.03),
      },
      50});

  out.push_back(DatasetSpec{
      "Proxifier", false,
      {
          T("[{}] chrome.exe - {}:443 open through proxy proxy.example.org:{} HTTPS",
            {Ts(),
             En({"play.google.com", "mail.example.com", "www.wikipedia.org",
                 "cdn.jsdelivr.net", "api.github.com", "static.example.org",
                 "img.example-cdn.net", "news.site.example"},
                {0.04, 0.16, 0.16, 0.16, 0.16, 0.12, 0.1, 0.1}),
             Dec(1080, 1090)},
            0.35),
          T("[{}] chrome.exe - {}.example.net:80 close, {} bytes sent, {} bytes received",
            {Ts(), En({"cdn1", "cdn2", "api"}), Dec(100, 100000), Dec(100, 4000000)},
            0.45),
          T("[{}] telegram.exe - {}:80 open directly",
            {Ts(), En({"dc1.telegram.org", "dc2.telegram.org"})}, 0.2),
      },
      51});

  out.push_back(DatasetSpec{
      "Spark", false,
      {
          T("{} INFO storage.BlockManager: Found block rdd_{}_{} locally",
            {Ts(), Dec(0, 99), Dec(0, 9999)}, 0.9),
          T("{} ERROR executor.Executor: Error sending result to driver StatusUpdate(taskId={})",
            {Ts(), Dec(0, 99999)}, 0.01),
      },
      52});

  out.push_back(DatasetSpec{
      "Ssh", false,
      {
          T("{} LabSZ sshd[{}]: Failed password for root from {} port {} ssh2",
            {Ts(), Dec(20000, 30000),
             En({"202.100.179.208", "183.62.140.253", "5.36.59.76",
                 "112.95.230.3", "187.141.143.180", "119.137.62.142"}),
             Dec(30000, 60000)},
            0.55),
          T("{} LabSZ sshd[{}]: Received disconnect from {}: 11: Bye Bye [preauth]",
            {Ts(), Dec(20000, 30000),
             En({"202.100.179.208", "103.99.0.122", "139.59.209.18",
                 "212.47.254.145"},
                {0.05, 0.35, 0.3, 0.3})},
            0.25),
          T("{} LabSZ sshd[{}]: pam_unix(sshd:auth): check pass; user unknown",
            {Ts(), Dec(20000, 30000)}, 0.2),
      },
      53});

  out.push_back(DatasetSpec{
      "Thunderbird", false,
      {
          T("- {} {} aadmin1/aadmin1 kernel: ACPI: LAPIC (acpi_id[0x{}] lapic_id[0x{}] enabled)",
            {Seq(1131566461), Ts(), Hex(2), Hex(2)}, 0.9),
          T("- {} {} anvil kernel: Doorbell ACK timeout for qp {}",
            {Seq(1131566461), Ts(), Hex(6)}, 0.01),
      },
      54});

  out.push_back(DatasetSpec{
      "Windows", false,
      {
          T("{}, Info                  CBS    Loaded Servicing Stack v{} with Core: winsxs\\amd64_microsoft-windows-servicingstack_{}",
            {Ts(), En({"6.1.7601.17592", "6.1.7601.23505"}), Hex(16)}, 0.9),
          T("{}, Error                 CSI    Failed to process single phase execution request. Flags: {}",
            {Ts(), Dec(0, 16)}, 0.01),
      },
      55});

  out.push_back(DatasetSpec{
      "Zookeeper", false,
      {
          T("{} - INFO  [NIOServerCxn.Factory:0.0.0.0/0.0.0.0:2181] - Accepted socket connection from /{}:{}",
            {Ts(), Ip(), Dec(30000, 60000)}, 0.9),
          T("{} - ERROR [CommitProcessor:{}] - Unexpected exception causing shutdown",
            {Ts(), Dec(0, 4)}, 0.01),
      },
      56});

  return out;
}

std::vector<DatasetSpec> BuildAll() {
  std::vector<DatasetSpec> all = BuildProduction();
  std::vector<DatasetSpec> pub = BuildPublic();
  all.insert(all.end(), std::make_move_iterator(pub.begin()),
             std::make_move_iterator(pub.end()));
  return all;
}

}  // namespace

const std::vector<DatasetSpec>& AllDatasets() {
  static const std::vector<DatasetSpec>* kAll =
      new std::vector<DatasetSpec>(BuildAll());
  return *kAll;
}

std::vector<const DatasetSpec*> ProductionDatasets() {
  std::vector<const DatasetSpec*> out;
  for (const DatasetSpec& d : AllDatasets()) {
    if (d.production) {
      out.push_back(&d);
    }
  }
  return out;
}

const DatasetSpec* FindDataset(std::string_view name) {
  for (const DatasetSpec& d : AllDatasets()) {
    if (d.name == name) {
      return &d;
    }
  }
  return nullptr;
}

}  // namespace loggrep
