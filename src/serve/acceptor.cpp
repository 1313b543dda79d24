#include "serve/acceptor.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "util/check.hpp"

namespace maxutil::serve {

using maxutil::util::ensure;

Acceptor::Acceptor(ServeSink& sink, AcceptorOptions options)
    : sink_(&sink), options_(options) {
  // Resume the --stamp ordinal past everything the sink already accepted:
  // after a recovery the replayed requests hold ordinals 0..accepted()-1,
  // and a restarted clock would violate the daemon's time ordering.
  arrivals_ = static_cast<std::size_t>(sink_->accepted());
  // Decisions that predate this acceptor (recovered replay) have no session
  // to route to; skip them. Requests the recovery left pending are orphans —
  // their eventual decisions are counted dropped, not routed.
  routed_ = sink_->daemon().report().decisions.size();
  orphans_ = sink_->daemon().pending_count();
  obs::MetricsRegistry& m = sink_->daemon().controller().metrics();
  const auto counter = [&m](const char* name, const char* help) {
    if (const auto id = m.find(name)) return *id;
    return m.counter(name, help);
  };
  m_clients_ = counter("serve_clients_total", "client sessions accepted");
  m_stale_ = counter("serve_stale_epoch_total",
                     "requests rejected for asserting a stale epoch");
  m_detached_ = counter("serve_clients_detached_total",
                        "slow or dead clients detached mid-session");
  m_dropped_ = counter("serve_dropped_responses_total",
                       "decisions whose submitting client was gone");
}

int Acceptor::open_session() {
  const int id = next_session_++;
  Session& session = sessions_[id];
  session.outbox = "epoch=" + std::to_string(sink_->epoch()) + "\n";
  ++clients_served_;
  sink_->daemon().controller().metrics().add(m_clients_);
  return id;
}

void Acceptor::deliver(int session, const std::string& line) {
  const auto it = sessions_.find(session);
  if (it == sessions_.end()) {
    sink_->daemon().controller().metrics().add(m_dropped_);
    return;
  }
  it->second.outbox += line;
  it->second.outbox += "\n";
}

void Acceptor::route_decisions(int submitter, bool joined, bool overloaded) {
  const std::vector<DecisionRecord>& decisions =
      sink_->daemon().report().decisions;
  std::size_t produced = decisions.size() - routed_;
  const std::size_t extra = overloaded ? 1 : 0;
  // Orphans (requests pending before this acceptor existed — a recovered
  // replay) flush ahead of owned requests; their decisions are dropped.
  while (orphans_ > 0 && produced > extra) {
    sink_->daemon().controller().metrics().add(m_dropped_);
    ++routed_;
    --orphans_;
    --produced;
  }
  // A flush decides every queued request in FIFO order; an immediate
  // overload denial for the request the submitter just fed (it never joined
  // the queue) is appended after them — it is always the last new decision.
  const std::size_t from_queue = produced - extra;
  ensure(from_queue == 0 || from_queue == owners_.size(),
         "acceptor: decision routing lost track of request ownership");
  for (std::size_t i = 0; i < from_queue; ++i) {
    deliver(owners_.front(), decisions[routed_].line());
    owners_.pop_front();
    ++routed_;
  }
  if (overloaded) {
    ensure(submitter >= 0, "acceptor: overload denial without a submitter");
    deliver(submitter, decisions[routed_].line());
    ++routed_;
  } else if (joined && submitter >= 0) {
    owners_.push_back(submitter);
  }
}

void Acceptor::feed_line(int session, const std::string& line) {
  const auto it = sessions_.find(session);
  ensure(it != sessions_.end(),
         "acceptor: unknown session " + std::to_string(session));
  Session& s = it->second;

  // Control line: the client asserts the epoch it believes is current.
  std::size_t start = line.find_first_not_of(" \t");
  if (start == std::string::npos) start = line.size();
  if (line.compare(start, 6, "epoch=") == 0) {
    char* end = nullptr;
    const std::uint64_t asserted =
        std::strtoull(line.c_str() + start + 6, &end, 10);
    if (*end == '\0' && asserted == sink_->epoch()) return;  // fresh: silent
    s.fenced = true;
    sink_->daemon().controller().metrics().add(m_stale_);
    s.outbox += "error: stale epoch " + line.substr(start + 6) + " (current " +
                std::to_string(sink_->epoch()) + "); reconnect and retry\n";
    return;
  }
  if (s.fenced) {
    sink_->daemon().controller().metrics().add(m_stale_);
    s.outbox += "error: session fenced by a stale epoch; reconnect and "
                "retry\n";
    return;
  }

  Script one;
  try {
    one = parse_script_text(line);
  } catch (const util::CheckError& e) {
    s.outbox += "error: " + util::strip_check_preamble(e.what()) + "\n";
    return;
  }
  for (Request& request : one.requests) {
    if (options_.stamp_arrival) {
      // The boundary total order is the virtual clock: each accepted line
      // gets the next ordinal, so the stamped stream replays exactly.
      request.event.time = arrivals_++;
    }
    const std::size_t overload_before =
        sink_->daemon().report().overload_denied;
    bool joined = true;
    try {
      sink_->submit(request);
    } catch (const util::CheckError& e) {
      joined = false;
      s.outbox += "error: " + util::strip_check_preamble(e.what()) + "\n";
    }
    const bool overloaded =
        sink_->daemon().report().overload_denied > overload_before;
    route_decisions(session, joined && !overloaded, overloaded);
  }
}

void Acceptor::flush_now() {
  sink_->force_flush();
  route_decisions(-1, false, false);
}

std::string Acceptor::close_session(int session) {
  const auto it = sessions_.find(session);
  ensure(it != sessions_.end(),
         "acceptor: unknown session " + std::to_string(session));
  // The departing client gets its pending answers before the drop; later
  // decisions it would have owned are counted dropped by deliver().
  flush_now();
  std::string farewell = std::move(it->second.outbox);
  sessions_.erase(it);
  return farewell;
}

std::string Acceptor::take_output(int session) {
  const auto it = sessions_.find(session);
  ensure(it != sessions_.end(),
         "acceptor: unknown session " + std::to_string(session));
  std::string out = std::move(it->second.outbox);
  it->second.outbox.clear();
  return out;
}

void Acceptor::run(const std::string& path) {
  std::signal(SIGPIPE, SIG_IGN);
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ensure(listener >= 0, "serve: cannot create Unix socket");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ensure(path.size() < sizeof(addr.sun_path),
         "serve: socket path too long: " + path);
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s", path.c_str());
  ::unlink(path.c_str());  // stale socket from a crashed predecessor
  ensure(::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) == 0,
         "serve: cannot bind " + path);
  ensure(::listen(listener, 16) == 0, "serve: cannot listen on " + path);
  std::fprintf(stderr,
               "serving on %s (multi-client, epoch %llu; ends when the last "
               "client leaves)\n",
               path.c_str(),
               static_cast<unsigned long long>(sink_->epoch()));

  struct Conn {
    int session = -1;
    std::string inbuf;
  };
  std::map<int, Conn> conns;
  bool any_connected = false;

  using Clock = std::chrono::steady_clock;
  Clock::time_point deadline{};
  bool have_deadline = false;
  const auto update_deadline = [&]() {
    if (options_.flush_ms == 0 || !sink_->daemon().batch_open()) {
      have_deadline = false;
      return;
    }
    if (!have_deadline) {
      deadline = Clock::now() + std::chrono::milliseconds(options_.flush_ms);
      have_deadline = true;
    }
  };

  const auto detach = [&](int fd, bool count_detached) {
    const auto it = conns.find(fd);
    if (it == conns.end()) return;
    if (count_detached) {
      sink_->daemon().controller().metrics().add(m_detached_);
      sessions_.erase(it->second.session);  // no farewell flush for the dead
    } else if (has_session(it->second.session)) {
      // EOF means "I sent everything; answer me": flush and write the final
      // responses best-effort before closing our side.
      const std::string farewell = close_session(it->second.session);
      std::size_t done = 0;
      while (done < farewell.size()) {
        const ssize_t n = ::send(fd, farewell.data() + done,
                                 farewell.size() - done, MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) break;
        done += static_cast<std::size_t>(n);
      }
    }
    ::close(fd);
    conns.erase(it);
  };

  while (!(conns.empty() && any_connected)) {
    std::vector<pollfd> fds;
    fds.push_back({listener, POLLIN, 0});
    for (const auto& [fd, conn] : conns) {
      short events = POLLIN;
      const auto sess = sessions_.find(conn.session);
      if (sess != sessions_.end() && !sess->second.outbox.empty()) {
        events |= POLLOUT;
      }
      fds.push_back({fd, events, 0});
    }
    int timeout = -1;
    if (have_deadline) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            deadline - Clock::now())
                            .count();
      timeout = left < 0 ? 0 : static_cast<int>(left);
    }
    const int ready = ::poll(fds.data(), fds.size(), timeout);
    if (ready < 0) {
      if (errno == EINTR) continue;
      ensure(false,
             "serve: poll failed: " + std::string(std::strerror(errno)));
    }
    if (ready == 0) {
      if (have_deadline) {
        flush_now();
        have_deadline = false;
        update_deadline();
      }
      continue;
    }

    if ((fds[0].revents & POLLIN) != 0) {
      int client = -1;
      do {
        client = ::accept(listener, nullptr, nullptr);
      } while (client < 0 && errno == EINTR);
      if (client >= 0) {
        conns[client].session = open_session();
        any_connected = true;
      }
    }

    std::vector<int> to_close;       // EOF / error: graceful close
    std::vector<int> to_detach;      // overflow / broken pipe
    for (std::size_t i = 1; i < fds.size(); ++i) {
      const int fd = fds[i].fd;
      const auto conn_it = conns.find(fd);
      if (conn_it == conns.end()) continue;
      Conn& conn = conn_it->second;

      if ((fds[i].revents & (POLLERR | POLLHUP | POLLNVAL)) != 0 &&
          (fds[i].revents & POLLIN) == 0) {
        to_close.push_back(fd);
        continue;
      }
      if ((fds[i].revents & POLLIN) != 0) {
        char chunk[4096];
        ssize_t n = 0;
        do {
          n = ::read(fd, chunk, sizeof(chunk));
        } while (n < 0 && errno == EINTR);
        if (n <= 0) {
          to_close.push_back(fd);
          continue;
        }
        conn.inbuf.append(chunk, static_cast<std::size_t>(n));
        std::size_t nl = 0;
        while ((nl = conn.inbuf.find('\n')) != std::string::npos) {
          const std::string line = conn.inbuf.substr(0, nl);
          conn.inbuf.erase(0, nl + 1);
          feed_line(conn.session, line);
          update_deadline();
        }
      }
      if ((fds[i].revents & POLLOUT) != 0) {
        const auto sess = sessions_.find(conn.session);
        if (sess != sessions_.end() && !sess->second.outbox.empty()) {
          std::string& out = sess->second.outbox;
          ssize_t n = 0;
          do {
            n = ::send(fd, out.data(), out.size(), MSG_NOSIGNAL);
          } while (n < 0 && errno == EINTR);
          if (n < 0) {
            if (errno != EAGAIN && errno != EWOULDBLOCK) to_detach.push_back(fd);
          } else {
            out.erase(0, static_cast<std::size_t>(n));
          }
        }
      }
      const auto sess = sessions_.find(conn.session);
      if (sess != sessions_.end() && options_.max_outbox_bytes != 0 &&
          sess->second.outbox.size() > options_.max_outbox_bytes) {
        to_detach.push_back(fd);
      }
    }
    for (const int fd : to_detach) detach(fd, /*count_detached=*/true);
    for (const int fd : to_close) detach(fd, /*count_detached=*/false);
    if (!sink_->daemon().batch_open()) have_deadline = false;
  }

  ::close(listener);
  ::unlink(path.c_str());
}

}  // namespace maxutil::serve
