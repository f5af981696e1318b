#include "trace.h"

#include <cstdio>
#include <map>

namespace perfbench {

int64_t Tracer::Add(const char* name, int64_t start_ns, int64_t end_ns,
                    int64_t parent, int64_t key, int64_t lane) {
  spans_.push_back(Span{name, start_ns, end_ns, parent, key, lane});
  return static_cast<int64_t>(spans_.size()) - 1;
}

int64_t Tracer::Open(const char* name, int64_t parent, int64_t key,
                     int64_t lane) {
  const int64_t now = NowNs();
  return Add(name, now, now, parent, key, lane);
}

std::vector<Tracer::Row> Tracer::SelfTimeTable() const {
  const std::vector<int64_t> self = SelfTimes(spans_);
  std::vector<Row> rows;
  std::map<std::string, size_t> index;
  for (size_t i = 0; i < spans_.size(); ++i) {
    auto [it, inserted] = index.emplace(spans_[i].name, rows.size());
    if (inserted) rows.push_back(Row{spans_[i].name, 0, 0, 0});
    Row& row = rows[it->second];
    ++row.count;
    row.total_ns += spans_[i].end_ns - spans_[i].start_ns;
    row.self_ns += self[i];
  }
  return rows;
}

bool Tracer::WriteChromeTrace(const std::string& path, int64_t origin_ns,
                              const std::string& metadata_json) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"otherData\":%s,"
               "\"traceEvents\":[\n", metadata_json.c_str());
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%lld,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%lld,\"key\":%lld}}\n",
                 i == 0 ? "" : ",", s.name, static_cast<long long>(s.lane),
                 static_cast<double>(s.start_ns - origin_ns) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.key));
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
