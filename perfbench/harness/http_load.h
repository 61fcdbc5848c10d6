// The serve_open load side: a `briq_tool serve` child process and a
// single-threaded HTTP/1.1 load generator over a few keep-alive
// connections, in open-loop (fixed schedule) or closed-loop mode.

#ifndef PERFBENCH_HARNESS_HTTP_LOAD_H_
#define PERFBENCH_HARNESS_HTTP_LOAD_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace perfbench {

/// A `briq_tool serve --model` child. The child dies with the harness
/// (PR_SET_PDEATHSIG), and Stop() — also run by the destructor — asks it
/// to quit, waits, and kills it if it does not exit.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Starts the server and waits for its port announcement.
  briq::util::Status Start(const std::string& briq_tool,
                           const std::string& model, int threads);
  void Stop();

  pid_t pid() const { return pid_; }
  uint16_t port() const { return port_; }

 private:
  pid_t pid_ = -1;
  int stdout_fd_ = -1;
  uint16_t port_ = 0;
};

/// One request of a run: which body, and when it is due (open loop).
struct Request {
  size_t body = 0;
  double due = 0.0;
};

/// One finished (or failed) request.
struct Sample {
  size_t body = 0;
  int conn = 0;
  double due = 0.0;       // scheduled send time (closed loop: send time)
  double late = 0.0;      // send delay the generator itself caused
  double send = 0.0;
  double done = 0.0;      // last response byte
  bool ok = false;        // 200 and the body equals the expected bytes
  double queue_ms = 0.0;  // Server-Timing "queue"
  double app_ms = 0.0;    // Server-Timing "app"
};

class LoadGenerator {
 public:
  /// `wires[i]` is the full request for body i, `expected[i]` the exact
  /// response body it must produce; both must outlive the generator.
  LoadGenerator(uint16_t port, int connections,
                const std::vector<std::string>* wires,
                const std::vector<std::string>* expected)
      : port_(port),
        connections_(connections),
        wires_(wires),
        expected_(expected) {}

  /// Sends each request at its due time on any idle connection; requests
  /// falling due while every connection is busy wait in FIFO order, and
  /// every latency is taken from the due time.
  briq::util::Status OpenLoop(const std::vector<Request>& schedule,
                              std::vector<Sample>* out);

  /// Each connection sends its next body (order[*cursor % size], cursor
  /// advancing) as soon as its previous response completes, for `seconds`.
  briq::util::Status ClosedLoop(double seconds,
                                const std::vector<size_t>& order,
                                size_t* cursor, std::vector<Sample>* out);

 private:
  struct Conn;

  briq::util::Status Drive(const std::vector<Request>* schedule,
                           double closed_end, const std::vector<size_t>* order,
                           size_t* cursor, std::vector<Sample>* out);

  uint16_t port_;
  int connections_;
  const std::vector<std::string>* wires_;
  const std::vector<std::string>* expected_;
};

/// GETs `path` on a fresh connection; the body, or an error.
briq::util::Status HttpGet(uint16_t port, const std::string& path,
                           std::string* body);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_HTTP_LOAD_H_
