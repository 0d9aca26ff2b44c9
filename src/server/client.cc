#include "src/server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/common/json.h"
#include "src/query/locator.h"

namespace loggrep {

namespace {

bool SendAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t sent = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (sent < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    data.remove_prefix(static_cast<size_t>(sent));
  }
  return true;
}

}  // namespace

DaemonClient::DaemonClient(std::string host, uint16_t port)
    : host_(std::move(host)), port_(port) {}

DaemonClient::~DaemonClient() { Disconnect(); }

void DaemonClient::Disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status DaemonClient::EnsureConnected() {
  if (fd_ >= 0) {
    return OkStatus();
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return IOError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  if (::inet_pton(AF_INET, host_.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return InvalidArgument("bad daemon address: " + host_);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Unavailable("connect " + host_ + ":" + std::to_string(port_) +
                       ": " + err);
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;
  return OkStatus();
}

Result<ParsedResponse> DaemonClient::RoundTrip(std::string_view request_bytes) {
  // One transparent reconnect: the server may have closed an idle
  // keep-alive connection between calls.
  for (int attempt = 0; attempt < 2; ++attempt) {
    if (Status s = EnsureConnected(); !s.ok()) {
      return s;
    }
    if (!SendAll(fd_, request_bytes)) {
      Disconnect();
      continue;
    }
    std::string data;
    char buf[16 * 1024];
    ParsedResponse response;
    size_t consumed = 0;
    while (true) {
      if (ParseResponseBytes(data, &response, &consumed)) {
        const auto connection = response.headers.find("connection");
        if (connection != response.headers.end() &&
            connection->second.find("close") != std::string::npos) {
          Disconnect();
        }
        return response;
      }
      const ssize_t got = ::recv(fd_, buf, sizeof(buf), 0);
      if (got <= 0) {
        Disconnect();
        break;  // retry once from a fresh connection
      }
      data.append(buf, static_cast<size_t>(got));
      if (data.size() > HttpLimits().max_body_bytes + 64 * 1024) {
        Disconnect();
        return IOError("daemon response exceeds client body limit");
      }
    }
  }
  return Unavailable("daemon connection failed twice");
}

Result<ParsedResponse> DaemonClient::Get(std::string_view path) {
  std::string request("GET ");
  request.append(path);
  request.append(" HTTP/1.1\r\nHost: ")
      .append(host_)
      .append("\r\n\r\n");
  return RoundTrip(request);
}

Status ParseRemoteQueryBody(std::string_view body, RemoteQueryResult* out) {
  Result<JsonValue> doc = ParseJson(body);
  if (!doc.ok()) {
    return doc.status();
  }
  out->complete = doc->Get("complete").AsBool(true);
  out->error = doc->Get("error").AsString();
  for (const JsonValue& hit : doc->Get("hits").AsArray()) {
    const auto& pair = hit.AsArray();
    if (pair.size() != 2) {
      return CorruptData("malformed hit entry in daemon response");
    }
    out->hits.emplace_back(pair[0].AsUint(), pair[1].AsString());
  }
  const JsonValue& stats = doc->Get("stats");
  LocatorStats ledger;
  for (const LedgerRow& row : kQueryLedger) {
    std::string key;
    AppendLedgerKey(&key, row);
    ledger.*row.field = stats.Get(key).AsUint();
  }
  out->cache_hits = ledger.cache_hits;
  out->bytes_decompressed = ledger.bytes_decompressed;
  out->blocks_from_cache = stats.Get("blocks_from_cache").AsUint();
  out->blocks_queried = stats.Get("blocks_queried").AsUint();
  out->lines_missing = doc->Get("partial").Get("lines_missing").AsUint();
  return OkStatus();
}

Result<RemoteQueryResult> DaemonClient::RunQueryRequest(
    std::string_view archive, std::string_view command,
    const RemoteQueryOptions& options, bool explain) {
  std::string target(explain ? "/explain" : "/query");
  target.append("?archive=").append(UrlEncode(archive));
  if (!options.degrade) {
    target.append("&degrade=0");
  }
  if (options.deadline_ms > 0) {
    target.append("&deadline_ms=").append(std::to_string(options.deadline_ms));
  }
  if (!options.tenant.empty()) {
    target.append("&tenant=").append(UrlEncode(options.tenant));
  }
  if (options.from_ns > 0) {
    target.append("&from=").append(std::to_string(options.from_ns));
  }
  if (options.to_ns != UINT64_MAX) {
    target.append("&to=").append(std::to_string(options.to_ns));
  }
  const bool post = options.use_post && !explain;
  if (!post) {
    target.append("&q=").append(UrlEncode(command));
  }

  std::string request;
  request.append(post ? "POST " : "GET ").append(target);
  request.append(" HTTP/1.1\r\nHost: ").append(host_).append("\r\n");
  if (!options.request_id.empty()) {
    request.append("X-Request-Id: ").append(options.request_id).append("\r\n");
  }
  if (post) {
    request.append("Content-Length: ")
        .append(std::to_string(command.size()))
        .append("\r\n\r\n")
        .append(command);
  } else {
    request.append("\r\n");
  }

  Result<ParsedResponse> response = RoundTrip(request);
  if (!response.ok()) {
    return response.status();
  }
  RemoteQueryResult result;
  result.http_status = response->status;
  const auto rid = response->headers.find("x-request-id");
  if (rid != response->headers.end()) {
    result.request_id = rid->second;
  }
  result.body = std::move(response->body);
  if (Status s = ParseRemoteQueryBody(result.body, &result); !s.ok()) {
    return s;
  }
  return result;
}

Result<RemoteQueryResult> DaemonClient::Query(std::string_view archive,
                                              std::string_view command,
                                              const RemoteQueryOptions& options) {
  return RunQueryRequest(archive, command, options, /*explain=*/false);
}

Result<RemoteQueryResult> DaemonClient::Explain(std::string_view archive,
                                                std::string_view command,
                                                const RemoteQueryOptions& options) {
  return RunQueryRequest(archive, command, options, /*explain=*/true);
}

}  // namespace loggrep
