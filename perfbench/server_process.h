#ifndef PERFBENCH_SERVER_PROCESS_H_
#define PERFBENCH_SERVER_PROCESS_H_
// The granmine_serve process under test, observed from outside: spawn and
// time its set-up, read its CPU time and peak RSS from /proc, query
// statusz over the wire, and parse the Prometheus exposition it writes at
// shutdown (--metrics-out).
#include <sys/types.h>

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "granmine/common/result.h"
#include "granmine/server/client.h"

namespace perfbench {

class ServerProcess {
 public:
  /// Spawns `argv` (stderr to `log_path`), waits for its "listening on
  /// HOST:PORT" line and pings it until the first pong. setup_s() is the
  /// time from spawn to that pong.
  static granmine::Result<std::unique_ptr<ServerProcess>> Start(
      const std::vector<std::string>& argv, const std::string& log_path);
  /// Kills and reaps the process if Stop() was not called.
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// SIGTERM, then waits for the drain; fails unless the server exits 0
  /// (it writes its --metrics-out / --trace-out files on the way out).
  granmine::Status Stop();

  std::uint16_t port() const { return port_; }
  double setup_s() const { return setup_s_; }
  /// User + system CPU seconds so far, from /proc/<pid>/stat.
  granmine::Result<double> CpuSeconds() const;
  /// Peak resident set (VmHWM) in MB, from /proc/<pid>/status.
  granmine::Result<double> PeakRssMb() const;

 private:
  ServerProcess() = default;
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  std::uint16_t port_ = 0;
  double setup_s_ = 0;
};

/// The machine-wide CPU time (/proc/stat) stolen by the hypervisor, and
/// the total; their deltas over a run say how much of it the host took.
struct HostCpu {
  double steal = 0;
  double total = 0;
};
granmine::Result<HostCpu> ReadHostCpu();

/// The statusz fields the cross-check reads.
struct StatuszCounts {
  std::uint64_t requests_total = 0;
  std::uint64_t shed = 0;
};
granmine::Result<StatuszCounts> ReadStatusz(granmine::server::Client* client);

/// A parsed Prometheus text exposition: full series name (with labels) to
/// value.
struct Exposition {
  std::map<std::string, double> series;
  /// Sum of every series of metric `name`, whatever its labels.
  double Total(const std::string& name) const;
  /// One series, e.g. Get("granmine_server_requests_total",
  /// "type=\"mine\""); 0 when absent.
  double Get(const std::string& name, const std::string& labels) const;
};
granmine::Result<Exposition> ReadExposition(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_SERVER_PROCESS_H_
