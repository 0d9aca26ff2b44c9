// Dataset catalog: 21 Alibaba-like production log types ("Log A".."Log U")
// and 16 LogHub-like public log types, mirroring the paper's evaluation
// corpus (§6). Each dataset is a DatasetSpec for the synthetic generator.
#ifndef SRC_WORKLOAD_DATASETS_H_
#define SRC_WORKLOAD_DATASETS_H_

#include <string_view>
#include <vector>

#include "src/workload/loggen.h"

namespace loggrep {

// All 37 datasets: production first (A..U), then the public ones.
const std::vector<DatasetSpec>& AllDatasets();

// The production family (A..U).
std::vector<const DatasetSpec*> ProductionDatasets();

// nullptr when no dataset has that name.
const DatasetSpec* FindDataset(std::string_view name);

}  // namespace loggrep

#endif  // SRC_WORKLOAD_DATASETS_H_
