#include "harness/http_load.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <memory>
#include <thread>

#include "harness/common.h"
#include "serve/http_client.h"
#include "util/tcp_listener.h"

namespace perfbench {

using briq::util::Status;

namespace {

constexpr char kPortPrefix[] = "serving metrics on http://127.0.0.1:";
constexpr char kReadyLine[] = "POST /align ready";
/// A request still unanswered this long after its phase ends has failed.
constexpr double kDrainSeconds = 30.0;

double ServerTimingEntry(const std::string& value, const std::string& name) {
  const size_t at = value.find(name + ";dur=");
  if (at == std::string::npos) return 0.0;
  return std::strtod(value.c_str() + at + name.size() + 5, nullptr);
}

std::string Lower(std::string s) {
  for (char& c : s) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return s;
}

}  // namespace

Status ServerProcess::Start(const std::string& briq_tool,
                            const std::string& model, int threads) {
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) return Status::Internal("pipe failed");
  const std::vector<std::string> args = {
      briq_tool, "serve", "--model", model, "--port", "0", "--serve-threads",
      std::to_string(threads), "--serve-linger", "900"};
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return Status::Internal("fork failed");
  }
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    dup2(fds[1], STDOUT_FILENO);
    setenv("BRIQ_LOG_LEVEL", "warning", 1);
    std::vector<char*> argv;
    for (const std::string& a : args) {
      argv.push_back(const_cast<char*>(a.c_str()));
    }
    argv.push_back(nullptr);
    execv(briq_tool.c_str(), argv.data());
    _exit(127);
  }
  close(fds[1]);
  pid_ = pid;
  stdout_fd_ = fds[0];

  // Read stdout lines until the ready line; the port comes on the line
  // before it.
  std::string buffer;
  const double deadline = Now() + 60.0;
  while (true) {
    size_t eol;
    while ((eol = buffer.find('\n')) != std::string::npos) {
      const std::string line = buffer.substr(0, eol);
      buffer.erase(0, eol + 1);
      if (line.rfind(kPortPrefix, 0) == 0) {
        port_ = static_cast<uint16_t>(
            std::strtoul(line.c_str() + sizeof(kPortPrefix) - 1, nullptr, 10));
      } else if (line == kReadyLine) {
        if (port_ == 0) break;
        return Status::OK();
      }
    }
    const double left = deadline - Now();
    pollfd p{stdout_fd_, POLLIN, 0};
    if (left <= 0 || poll(&p, 1, static_cast<int>(left * 1e3) + 1) <= 0) break;
    char chunk[4096];
    const ssize_t n = read(stdout_fd_, chunk, sizeof(chunk));
    if (n <= 0) break;
    buffer.append(chunk, static_cast<size_t>(n));
  }
  Stop();
  return Status::Internal("briq_tool serve did not announce a ready port");
}

void ServerProcess::Stop() {
  if (pid_ <= 0) return;
  if (port_ != 0) {
    std::string ignored;
    (void)HttpGet(port_, "/quitquitquit", &ignored);
  }
  int status = 0;
  bool reaped = false;
  for (int i = 0; i < 500 && !reaped; ++i) {
    reaped = waitpid(pid_, &status, WNOHANG) == pid_;
    if (!reaped) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  if (!reaped) {
    kill(pid_, SIGKILL);
    waitpid(pid_, &status, 0);
  }
  close(stdout_fd_);
  stdout_fd_ = -1;
  pid_ = -1;
  port_ = 0;
}

Status HttpGet(uint16_t port, const std::string& path, std::string* body) {
  auto client = briq::serve::HttpClient::Connect(port);
  if (!client.ok()) return client.status();
  auto response = client->Request("GET", path, "", {}, 10.0);
  if (!response.ok()) return response.status();
  if (response->status != 200) {
    return Status::Internal("GET " + path + " answered " +
                            std::to_string(response->status));
  }
  *body = std::move(response->body);
  return Status::OK();
}

/// One keep-alive connection and the request in flight on it.
struct LoadGenerator::Conn {
  briq::util::ClientSocket socket;
  bool busy = false;
  double idle_since = 0.0;
  Sample sample;
  size_t sent = 0;
  std::string in;
  size_t header_end = std::string::npos;
  size_t content_length = 0;
  int status = 0;
  bool close_after = false;
  std::string server_timing;

  Status Open(uint16_t port) {
    auto s = briq::util::ClientSocket::Connect(port);
    if (!s.ok()) return s.status();
    socket = std::move(*s);
    const int one = 1;
    setsockopt(socket.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    fcntl(socket.fd(), F_SETFL, fcntl(socket.fd(), F_GETFL) | O_NONBLOCK);
    return Status::OK();
  }

  void Reset() {
    busy = false;
    sent = 0;
    in.clear();
    header_end = std::string::npos;
    content_length = 0;
    status = 0;
    close_after = false;
    server_timing.clear();
  }

  /// Parses what has arrived; true once the whole response is in.
  bool Complete() {
    if (header_end == std::string::npos) {
      header_end = in.find("\r\n\r\n");
      if (header_end == std::string::npos) return false;
      const std::string head = Lower(in.substr(0, header_end));
      if (head.rfind("http/1.", 0) == 0 && head.size() > 12) {
        status = std::atoi(head.c_str() + 9);
      }
      size_t at = head.find("\r\ncontent-length:");
      if (at != std::string::npos) {
        content_length = std::strtoul(head.c_str() + at + 17, nullptr, 10);
      }
      at = head.find("\r\nserver-timing:");
      if (at != std::string::npos) {
        const size_t end = head.find("\r\n", at + 2);
        server_timing = head.substr(at + 16, end - at - 16);
      }
      close_after = head.find("\r\nconnection: close") != std::string::npos;
    }
    return in.size() >= header_end + 4 + content_length;
  }
};

Status LoadGenerator::OpenLoop(const std::vector<Request>& schedule,
                               std::vector<Sample>* out) {
  return Drive(&schedule, 0.0, nullptr, nullptr, out);
}

Status LoadGenerator::ClosedLoop(double seconds,
                                 const std::vector<size_t>& order,
                                 size_t* cursor, std::vector<Sample>* out) {
  return Drive(nullptr, Now() + seconds, &order, cursor, out);
}

Status LoadGenerator::Drive(const std::vector<Request>* schedule,
                            double closed_end,
                            const std::vector<size_t>* order, size_t* cursor,
                            std::vector<Sample>* out) {
  std::vector<std::unique_ptr<Conn>> conns;
  for (int c = 0; c < connections_; ++c) {
    conns.push_back(std::make_unique<Conn>());
    BRIQ_RETURN_IF_ERROR(conns.back()->Open(port_));
    conns.back()->idle_since = Now();
  }
  const bool open_loop = schedule != nullptr;
  const double phase_end =
      open_loop ? (schedule->empty() ? Now() : schedule->back().due)
                : closed_end;
  std::deque<Request> backlog;
  size_t next = 0;

  auto finish = [&](int c, bool transport_error) {
    Conn& conn = *conns[static_cast<size_t>(c)];
    Sample s = conn.sample;
    s.done = Now();
    if (!transport_error) {
      const std::string body =
          conn.in.substr(conn.header_end + 4, conn.content_length);
      s.ok = conn.status == 200 && body == (*expected_)[s.body];
      s.queue_ms = ServerTimingEntry(conn.server_timing, "queue");
      s.app_ms = ServerTimingEntry(conn.server_timing, "app");
    }
    out->push_back(s);
    const bool reopen = transport_error || conn.close_after;
    conn.Reset();
    conn.idle_since = s.done;
    if (reopen) {
      conn.socket.Close();
      if (!conn.Open(port_).ok()) conn.socket.Close();
    }
  };

  auto start = [&](int c, const Request& r) {
    Conn& conn = *conns[static_cast<size_t>(c)];
    conn.busy = true;
    conn.sample = Sample{};
    conn.sample.body = r.body;
    conn.sample.conn = c;
    conn.sample.send = Now();
    conn.sample.due = open_loop ? r.due : conn.sample.send;
    conn.sample.late =
        open_loop ? conn.sample.send - std::max(r.due, conn.idle_since) : 0.0;
    if (!conn.socket.valid()) {
      finish(c, true);
      return;
    }
    const std::string& wire = (*wires_)[r.body];
    const ssize_t n = send(conn.socket.fd(), wire.data(), wire.size(),
                           MSG_NOSIGNAL);
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
      finish(c, true);
      return;
    }
    conn.sent = n < 0 ? 0 : static_cast<size_t>(n);
  };

  std::vector<pollfd> fds;
  std::vector<int> fd_conn;
  while (true) {
    const double now = Now();
    if (open_loop) {
      while (next < schedule->size() && (*schedule)[next].due <= now) {
        backlog.push_back((*schedule)[next++]);
      }
    }
    bool any_busy = false;
    for (int c = 0; c < connections_; ++c) {
      Conn& conn = *conns[static_cast<size_t>(c)];
      if (!conn.busy) {
        if (open_loop && !backlog.empty()) {
          const Request r = backlog.front();
          backlog.pop_front();
          start(c, r);
        } else if (!open_loop && now < closed_end) {
          start(c, Request{(*order)[(*cursor)++ % order->size()], now});
        }
      }
      any_busy = any_busy || conn.busy;
    }
    const bool feeding = open_loop
                             ? next < schedule->size() || !backlog.empty()
                             : Now() < closed_end;
    if (!feeding && !any_busy) break;
    if (Now() > phase_end + kDrainSeconds) {
      for (int c = 0; c < connections_; ++c) {
        if (conns[static_cast<size_t>(c)]->busy) finish(c, true);
      }
      return Status::Internal("requests still unanswered " +
                              std::to_string(kDrainSeconds) +
                              " s after the phase ended");
    }

    double wait = 0.05;
    if (open_loop && next < schedule->size()) {
      wait = std::min(wait, (*schedule)[next].due - Now());
    } else if (!open_loop && Now() < closed_end) {
      wait = std::min(wait, closed_end - Now());
    }
    if (wait < 0) wait = 0;
    fds.clear();
    fd_conn.clear();
    for (int c = 0; c < connections_; ++c) {
      Conn& conn = *conns[static_cast<size_t>(c)];
      if (!conn.busy) continue;
      const size_t wire_size = (*wires_)[conn.sample.body].size();
      fds.push_back(pollfd{conn.socket.fd(),
                           static_cast<short>(conn.sent < wire_size
                                                  ? POLLIN | POLLOUT
                                                  : POLLIN),
                           0});
      fd_conn.push_back(c);
    }
    timespec ts{static_cast<time_t>(wait),
                static_cast<long>((wait - std::floor(wait)) * 1e9)};
    const int ready = ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (ready <= 0) continue;
    for (size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      const int c = fd_conn[i];
      Conn& conn = *conns[static_cast<size_t>(c)];
      const std::string& wire = (*wires_)[conn.sample.body];
      if ((fds[i].revents & POLLOUT) && conn.sent < wire.size()) {
        const ssize_t n = send(conn.socket.fd(), wire.data() + conn.sent,
                               wire.size() - conn.sent, MSG_NOSIGNAL);
        if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
          finish(c, true);
          continue;
        }
        if (n > 0) conn.sent += static_cast<size_t>(n);
      }
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        char buf[65536];
        bool closed = false;
        while (true) {
          const ssize_t n = recv(conn.socket.fd(), buf, sizeof(buf), 0);
          if (n > 0) {
            conn.in.append(buf, static_cast<size_t>(n));
            continue;
          }
          closed = n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK);
          break;
        }
        if (conn.Complete()) {
          finish(c, false);
        } else if (closed) {
          finish(c, true);
        }
      }
    }
  }
  return Status::OK();
}

}  // namespace perfbench
