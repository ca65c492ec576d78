#include "src/io/io_stats.h"

#include <cstdio>
#include <map>
#include <memory>

#include "src/common/sync.h"

namespace coconut {

namespace {

/// Active per-thread attribution bucket; null outside any scope.
thread_local const IoCounterSet* t_component = nullptr;

/// The (never-destroyed) counter set for a named component — "query",
/// "sort", "build", "journal", ... — registering "io.<component>.*" metrics
/// on first use.
const IoCounterSet& GetIoComponent(const std::string& component) {
  static Mutex* mu = new Mutex();
  static auto* sets = new std::map<std::string, std::unique_ptr<IoCounterSet>>();
  MutexLock lock(mu);
  auto& slot = (*sets)[component];
  if (!slot) {
    slot = std::make_unique<IoCounterSet>(
        IoCounterSet::FromRegistry("io." + component + "."));
  }
  return *slot;
}

}  // namespace

IoCounterSet IoCounterSet::FromRegistry(const std::string& prefix) {
  MetricRegistry& reg = MetricRegistry::Default();
  IoCounterSet s;
  s.read_ops = reg.GetCounter(prefix + "read_ops");
  s.write_ops = reg.GetCounter(prefix + "write_ops");
  s.random_read_ops = reg.GetCounter(prefix + "random_read_ops");
  s.random_write_ops = reg.GetCounter(prefix + "random_write_ops");
  s.bytes_read = reg.GetCounter(prefix + "bytes_read");
  s.bytes_written = reg.GetCounter(prefix + "bytes_written");
  return s;
}

IoComponentScope::IoComponentScope(const std::string& component)
    : prev_(t_component) {
  t_component = &GetIoComponent(component);
}

IoComponentScope::~IoComponentScope() { t_component = prev_; }

const IoCounterSet* IoComponentScope::Current() { return t_component; }

std::string IoSnapshot::ToString() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "reads=%llu (rand=%llu) writes=%llu (rand=%llu) "
                "MB_read=%.1f MB_written=%.1f",
                static_cast<unsigned long long>(read_ops),
                static_cast<unsigned long long>(random_read_ops),
                static_cast<unsigned long long>(write_ops),
                static_cast<unsigned long long>(random_write_ops),
                bytes_read / 1048576.0, bytes_written / 1048576.0);
  return std::string(buf);
}

}  // namespace coconut
