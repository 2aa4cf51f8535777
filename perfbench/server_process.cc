#include "server_process.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

extern char** environ;

namespace perfbench {

using granmine::Result;
using granmine::Status;
using Clock = std::chrono::steady_clock;

namespace {

// Waits up to `timeout` for the child to exit; true once reaped.
bool WaitExit(pid_t pid, Clock::duration timeout, int* status) {
  const auto deadline = Clock::now() + timeout;
  while (true) {
    const pid_t done = ::waitpid(pid, status, WNOHANG);
    if (done == pid || (done < 0 && errno == ECHILD)) return true;
    if (Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

Result<std::string> ReadProcFile(pid_t pid, const char* name) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/" + name);
  if (!in) return Status::NotFound(std::string("cannot read /proc/<pid>/") + name);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

}  // namespace

Result<std::unique_ptr<ServerProcess>> ServerProcess::Start(
    const std::vector<std::string>& argv, const std::string& log_path) {
  int pipe_fds[2];
  if (::pipe2(pipe_fds, O_CLOEXEC) != 0) {
    return Status::Internal(std::string("pipe: ") + std::strerror(errno));
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, pipe_fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, log_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  std::vector<char*> args;
  for (const std::string& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);

  std::unique_ptr<ServerProcess> server(new ServerProcess());
  const auto spawned_at = Clock::now();
  const int rc = ::posix_spawn(&server->pid_, args[0], &actions, nullptr,
                               args.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(pipe_fds[1]);
  server->stdout_fd_ = pipe_fds[0];
  if (rc != 0) {
    server->pid_ = -1;
    return Status::Internal("spawn " + argv[0] + ": " + std::strerror(rc));
  }

  // The server prints "granmine_serve listening on HOST:PORT" once bound.
  std::string line;
  const auto deadline = spawned_at + std::chrono::seconds(120);
  while (line.find('\n') == std::string::npos) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    pollfd pfd{server->stdout_fd_, POLLIN, 0};
    if (left.count() <= 0 || ::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) {
      return Status::Internal("server did not report its port in time");
    }
    char buffer[256];
    const ssize_t n = ::read(server->stdout_fd_, buffer, sizeof(buffer));
    if (n <= 0) return Status::Internal("server exited during start-up");
    line.append(buffer, static_cast<std::size_t>(n));
  }
  const std::size_t colon = line.rfind(':', line.find('\n'));
  if (line.find("listening on") == std::string::npos || colon == std::string::npos) {
    return Status::Internal("unexpected server banner: " + line);
  }
  server->port_ = static_cast<std::uint16_t>(std::stoi(line.substr(colon + 1)));

  while (true) {
    auto client = granmine::server::Client::Connect("127.0.0.1", server->port_);
    if (client.ok() && (*client)->Ping().ok()) break;
    if (Clock::now() >= deadline) return Status::Internal("server never answered a ping");
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server->setup_s_ =
      std::chrono::duration<double>(Clock::now() - spawned_at).count();
  return server;
}

ServerProcess::~ServerProcess() {
  if (pid_ > 0) {
    int status = 0;
    ::kill(pid_, SIGKILL);
    WaitExit(pid_, std::chrono::seconds(10), &status);
  }
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
}

Status ServerProcess::Stop() {
  if (pid_ <= 0) return Status::OK();
  int status = 0;
  ::kill(pid_, SIGTERM);
  if (!WaitExit(pid_, std::chrono::seconds(60), &status)) {
    return Status::Internal("server did not drain within 60 s of SIGTERM");
  }
  pid_ = -1;
  // granmine_serve installs its SIGTERM handler just after printing its
  // port, so a server stopped right after set-up may die of the signal
  // itself instead of draining; either way it served nothing yet.
  if (WIFSIGNALED(status) && WTERMSIG(status) == SIGTERM) return Status::OK();
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return Status::Internal("server exited abnormally (wait status " +
                            std::to_string(status) + ")");
  }
  return Status::OK();
}

Result<double> ServerProcess::CpuSeconds() const {
  GM_ASSIGN_OR_RETURN(std::string stat, ReadProcFile(pid_, "stat"));
  // Fields after the parenthesised command name: state is field 3, utime
  // and stime are fields 14 and 15.
  std::istringstream fields(stat.substr(stat.rfind(')') + 2));
  std::string field;
  double ticks = 0;
  for (int index = 3; index <= 15 && fields >> field; ++index) {
    if (index >= 14) ticks += std::stod(field);
  }
  return ticks / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

Result<double> ServerProcess::PeakRssMb() const {
  GM_ASSIGN_OR_RETURN(std::string status, ReadProcFile(pid_, "status"));
  const std::size_t at = status.find("VmHWM:");
  if (at == std::string::npos) return Status::NotFound("no VmHWM line");
  return std::stod(status.substr(at + 6)) / 1024.0;  // kB -> MB
}

Result<HostCpu> ReadHostCpu() {
  std::ifstream in("/proc/stat");
  std::string label;
  HostCpu cpu;
  // cpu user nice system idle iowait irq softirq steal ...
  if (!(in >> label) || label != "cpu") {
    return Status::NotFound("no cpu line in /proc/stat");
  }
  double value = 0;
  for (int field = 1; field <= 8 && in >> value; ++field) {
    cpu.total += value;
    if (field == 8) cpu.steal = value;
  }
  return cpu;
}

Result<StatuszCounts> ReadStatusz(granmine::server::Client* client) {
  GM_ASSIGN_OR_RETURN(granmine::server::Response response, client->Statusz());
  auto field = [&](const char* key) -> Result<std::uint64_t> {
    const std::string needle = std::string("\"") + key + "\":";
    const std::size_t at = response.out.find(needle);
    if (at == std::string::npos) {
      return Status::Invalid(std::string("statusz lacks ") + key);
    }
    return std::stoull(response.out.substr(at + needle.size()));
  };
  StatuszCounts counts;
  GM_ASSIGN_OR_RETURN(counts.requests_total, field("requests_total"));
  GM_ASSIGN_OR_RETURN(counts.shed, field("shed"));
  return counts;
}

double Exposition::Total(const std::string& name) const {
  double total = 0;
  for (const auto& [series_name, value] : series) {
    if (series_name == name || series_name.rfind(name + "{", 0) == 0) {
      total += value;
    }
  }
  return total;
}

double Exposition::Get(const std::string& name,
                       const std::string& labels) const {
  auto it = series.find(labels.empty() ? name : name + "{" + labels + "}");
  return it == series.end() ? 0 : it->second;
}

Result<Exposition> ReadExposition(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open metrics file '" + path + "'");
  Exposition exposition;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    exposition.series[line.substr(0, space)] = std::stod(line.substr(space + 1));
  }
  return exposition;
}

}  // namespace perfbench
