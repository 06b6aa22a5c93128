#include "metis/serve/server.h"

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <functional>
#include <stdexcept>
#include <utility>

#include "metis/net/io.h"
#include "metis/tree/tree_io.h"

namespace metis::serve {

Server::Server(ServerConfig config)
    : config_(std::move(config)),
      service_(config_.service,
               config_.auto_deploy_distilled
                   ? Service::DistillDoneHook(std::bind_front(&Server::deploy,
                                                              this))
                   : nullptr) {
  if (!config_.store_dir.empty()) {
    // Constructing the store IS crash recovery: checksum scan, temp
    // sweep, quarantine, manifest reconcile (store/snapshot_store.h).
    store_.emplace(store::SnapshotStoreConfig{config_.store_dir,
                                              config_.store_retain});
  }
}

Server::~Server() { stop(); }

void Server::add_tree(const std::string& name, tree::FlatTree tree,
                      std::uint64_t version) {
  auto shared = std::make_shared<const tree::FlatTree>(std::move(tree));
  util::MutexLock lock(trees_mu_);
  trees_[name] = Deployed{std::move(shared), version};
}

bool Server::has_tree(const std::string& name) const {
  util::MutexLock lock(trees_mu_);
  return trees_.find(name) != trees_.end();
}

void Server::start() {
  if (started_) return;
  // Warm boot BEFORE binding listeners: the first accepted connection
  // must already see every tree the store recovered — a restart never
  // exposes a window where previously served trees answer "unknown".
  if (store_) {
    for (const store::ArtifactInfo& info : store_->list()) {
      if (info.kind != store::ArtifactKind::kTree) continue;
      try {
        std::uint64_t version = 0;
        tree::DecisionTree recovered = store_->load_tree(info.key, &version);
        add_tree(info.key, tree::FlatTree::compile(recovered), version);
        stats_.trees_warm_booted.fetch_add(1, std::memory_order_relaxed);
      } catch (const std::exception&) {
        // Every version of this key failed its checksum between list()
        // and load (quarantined): serve the rest of the store rather
        // than refusing to boot.
      }
    }
  }
  if (!config_.unix_path.empty()) {
    unix_listener_.emplace(net::Listener::unix_domain(config_.unix_path));
    const net::Listener& l = *unix_listener_;
    loop_.add(l.fd(), EPOLLIN, [this, &l](std::uint32_t) {
      util::ScopedThreadRole role(loop_role_);
      on_accept(l);
    });
  }
  if (config_.tcp) {
    tcp_listener_.emplace(net::Listener::tcp(config_.tcp_port));
    tcp_port_ = tcp_listener_->port();
    const net::Listener& l = *tcp_listener_;
    loop_.add(l.fd(), EPOLLIN, [this, &l](std::uint32_t) {
      util::ScopedThreadRole role(loop_role_);
      on_accept(l);
    });
  }
  if (!unix_listener_ && !tcp_listener_) {
    throw std::runtime_error(
        "Server::start: no listener configured (set unix_path and/or tcp)");
  }
  // Reaper timer: armed before the loop thread exists (add_timer is legal
  // off-thread only until run()), fires on the loop thread forever after.
  // Skipped entirely when no reaping is configured.
  if (config_.idle_timeout_ms > 0 || config_.write_stall_timeout_ms > 0) {
    const auto period =
        std::chrono::milliseconds(std::max<std::uint64_t>(
            1, config_.housekeeping_interval_ms));
    loop_.add_timer(period, period, [this] {
      util::ScopedThreadRole role(loop_role_);
      housekeeping();
    });
  }
  loop_thread_ = std::thread([this] { loop_.run(); });
  started_ = true;
}

void Server::stop() {
  if (!started_) return;
  // Graceful, bounded drain: run the shutdown sequence ON the loop thread
  // (it owns every connection), then wait for the loop to exit. The loop
  // exit is bounded by begin_drain()'s force-stop timer, so this join
  // cannot hang on a slow peer.
  loop_.post([this] {
    util::ScopedThreadRole role(loop_role_);
    begin_drain();
  });
  loop_thread_.join();
  started_ = false;
  // The loop thread is gone, so its role transfers to us for teardown —
  // the ScopedThreadRole makes that hand-off explicit to the analysis.
  util::ScopedThreadRole role(loop_role_);
  draining_ = false;
  for (auto& [fd, conn] : conns_) {
    loop_.remove(fd);
    ::close(fd);
  }
  conns_.clear();
  inflight_.clear();
  if (unix_listener_) loop_.remove(unix_listener_->fd());
  if (tcp_listener_) loop_.remove(tcp_listener_->fd());
  unix_listener_.reset();  // unlinks the socket path
  tcp_listener_.reset();
}

void Server::begin_drain() {
  if (draining_) return;
  draining_ = true;
  // Stop accepting first: a drain with an open front door never finishes.
  if (unix_listener_) loop_.remove(unix_listener_->fd());
  if (tcp_listener_) loop_.remove(tcp_listener_->fd());
  // Final flush per connection. flush() may close (and erase) the conn on
  // error or full drain, so walk a snapshot of fds and re-find each.
  std::vector<int> fds;
  fds.reserve(conns_.size());
  for (const auto& [fd, conn] : conns_) fds.push_back(fd);
  for (const int fd : fds) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) continue;
    Connection& conn = *it->second;
    if (conn.out_off >= conn.outbuf.size()) {
      close_connection(fd);  // nothing pending — close now
    } else {
      flush(conn);  // closes via the draining_ branch when it empties
    }
  }
  if (conns_.empty()) {
    loop_.stop();
    return;
  }
  // Some peers still owe us a drain: give them stop_timeout_ms, then cut.
  const auto deadline = std::chrono::milliseconds(
      std::max<std::uint64_t>(1, config_.stop_timeout_ms));
  loop_.add_timer(deadline, std::chrono::nanoseconds::zero(),
                  [this] { loop_.stop(); });
}

void Server::housekeeping() {
  const auto now = std::chrono::steady_clock::now();
  const auto idle = std::chrono::milliseconds(config_.idle_timeout_ms);
  const auto stall = std::chrono::milliseconds(config_.write_stall_timeout_ms);
  std::vector<int> reap;
  for (const auto& [fd, conn] : conns_) {
    if (config_.idle_timeout_ms > 0 && now - conn->last_activity >= idle) {
      reap.push_back(fd);
      continue;
    }
    if (config_.write_stall_timeout_ms > 0 && conn->want_write &&
        now - conn->stall_since >= stall) {
      reap.push_back(fd);
    }
  }
  for (const int fd : reap) {
    stats_.connections_reaped.fetch_add(1, std::memory_order_relaxed);
    close_connection(fd);
  }
}

void Server::deploy(const std::string& key, const api::DistillRun& run) {
  tree::FlatTree compiled = tree::FlatTree::compile(run.result.tree);
  // One deploy at a time, so the query plane swaps trees in the order the
  // store versioned them: a job that published first can never overwrite
  // a newer tree. The store serializes publishes anyway.
  util::MutexLock lock(deploy_mu_);
  std::uint64_t version = 0;
  if (store_) {
    // Durable before visible: the artifact is fsync'd into the store
    // BEFORE the query plane can answer with it. A publish the disk
    // rejects (ENOSPC, I/O error) is counted, and the tree is not served.
    try {
      version = store_->publish_tree(key, run.result.tree);
    } catch (const std::runtime_error&) {
      stats_.store_publish_failures.fetch_add(1, std::memory_order_relaxed);
      return;
    }
  }
  add_tree(key, std::move(compiled), version);
  stats_.trees_auto_deployed.fetch_add(1, std::memory_order_relaxed);
}

Server::Stats Server::stats() const {
  Stats s;
  s.connections_accepted = stats_.connections_accepted.load();
  s.sessions_opened = stats_.sessions_opened.load();
  s.decisions_served = stats_.decisions_served.load();
  s.jobs_admitted = stats_.jobs_admitted.load();
  s.busy_replies = stats_.busy_replies.load();
  s.error_replies = stats_.error_replies.load();
  s.connections_dropped = stats_.connections_dropped.load();
  s.connections_reaped = stats_.connections_reaped.load();
  s.trees_auto_deployed = stats_.trees_auto_deployed.load();
  s.trees_warm_booted = stats_.trees_warm_booted.load();
  s.store_publish_failures = stats_.store_publish_failures.load();
  return s;
}

void Server::on_accept(const net::Listener& listener) {
  // Drain the whole backlog: with edge-batched wakes several connections
  // may be pending behind one EPOLLIN.
  for (;;) {
    const int fd = listener.accept();
    if (fd < 0) return;
    stats_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
    auto conn = std::make_unique<Connection>(config_.max_frame_bytes);
    conn->fd = fd;
    conn->last_activity = std::chrono::steady_clock::now();
    loop_.add(fd, EPOLLIN,
              [this, fd](std::uint32_t events) {
                util::ScopedThreadRole role(loop_role_);
                on_connection_event(fd, events);
              });
    conns_.emplace(fd, std::move(conn));
  }
}

void Server::on_connection_event(int fd, std::uint32_t events) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Connection& conn = *it->second;

  if (events & EPOLLOUT) {
    flush(conn);
    if (conns_.find(fd) == conns_.end()) return;  // flush may drop the conn
  }
  if (!(events & (EPOLLIN | EPOLLHUP | EPOLLERR))) return;

  // Drain the socket, then decode and answer EVERY complete frame before a
  // single flush — the per-wake batching of the query plane.
  std::uint8_t buf[16384];
  bool peer_closed = false;
  for (;;) {
    const ssize_t n = net::io::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn.last_activity = std::chrono::steady_clock::now();
      try {
        conn.decoder.feed(buf, static_cast<std::size_t>(n));
      } catch (const net::WireError&) {
        // feed() itself never throws today, but keep the stream-fatal
        // contract in one place.
        stats_.connections_dropped.fetch_add(1, std::memory_order_relaxed);
        close_connection(fd);
        return;
      }
      continue;
    }
    if (n == 0) {
      peer_closed = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    peer_closed = true;  // ECONNRESET and friends
    break;
  }

  net::Frame frame;
  for (;;) {
    try {
      if (!conn.decoder.next(frame)) break;
    } catch (const net::WireError&) {
      // Oversized or zero-length frame header: the stream cannot be
      // re-synchronized, so the connection must go.
      stats_.connections_dropped.fetch_add(1, std::memory_order_relaxed);
      close_connection(fd);
      return;
    }
    handle_frame(conn, frame);
    if (conns_.find(fd) == conns_.end()) return;  // overflow drop mid-batch
  }

  if (peer_closed) {
    close_connection(fd);
    return;
  }
  flush(conn);
}

void Server::handle_frame(Connection& conn, const net::Frame& frame) {
  using net::MsgType;
  try {
    switch (frame.type) {
      case MsgType::kOpenSession: {
        const auto req = net::OpenSessionRequest::decode(frame);
        std::shared_ptr<const tree::FlatTree> tree;
        {
          util::MutexLock lock(trees_mu_);
          auto it = trees_.find(req.tree);
          if (it != trees_.end()) tree = it->second.tree;
        }
        if (!tree) {
          stats_.error_replies.fetch_add(1, std::memory_order_relaxed);
          reply(conn,
                net::ErrorReply{"unknown tree: " + req.tree}.encode());
          return;
        }
        const std::uint64_t id = next_session_++;
        conn.sessions.emplace(id, Session{std::move(tree)});
        stats_.sessions_opened.fetch_add(1, std::memory_order_relaxed);
        reply(conn, net::SessionOpenedReply{id}.encode());
        return;
      }
      // metis-lint: begin-deterministic — the query arm: the served
      // decision must be bit-identical to in-process FlatTree::predict
      // (the load demo bit_cast-compares them), so nothing on this arm
      // may depend on time, thread identity, or hashed-container order.
      // metis-lint: begin-hot-path
      case MsgType::kQuery: {
        const auto req = net::QueryRequest::decode(frame);
        auto it = conn.sessions.find(req.session);
        if (it == conn.sessions.end()) {
          stats_.error_replies.fetch_add(1, std::memory_order_relaxed);
          reply(conn, net::ErrorReply{"unknown session"}.encode());
          return;
        }
        // The hot path: answered inline, no locks, no allocation beyond
        // the reply frame.
        const double decision = it->second.tree->predict(req.features);
        stats_.decisions_served.fetch_add(1, std::memory_order_relaxed);
        reply(conn,
              net::DecisionReply{req.session, req.seq, decision}.encode());
        return;
      }
      // metis-lint: end-hot-path
      // metis-lint: end-deterministic
      case MsgType::kSubmitDistill:
      case MsgType::kSubmitInterpret:
        handle_submit(conn, frame);
        return;
      case MsgType::kPoll: {
        const auto req = net::PollRequest::decode(frame);
        const JobHandle job = service_.find(req.job);
        if (!job.valid()) {
          stats_.error_replies.fetch_add(1, std::memory_order_relaxed);
          reply(conn, net::ErrorReply{"unknown job"}.encode());
          return;
        }
        const JobProgress p = job.progress();
        net::JobStatusReply r;
        r.job = req.job;
        r.status = static_cast<std::uint8_t>(job.status());
        r.rounds_done = p.rounds_done;
        r.rounds_total = p.rounds_total;
        r.episodes_done = p.episodes_done;
        r.episodes_total = p.episodes_total;
        r.steps_done = p.steps_done;
        r.steps_total = p.steps_total;
        r.error = job.error();
        reply(conn, r.encode());
        return;
      }
      case MsgType::kResult:
        handle_result(conn, frame);
        return;
      case MsgType::kListTrees: {
        (void)net::ListTreesRequest::decode(frame);  // validates empty payload
        net::TreeListReply r;
        {
          // std::map iteration: deterministic name-sorted order.
          util::MutexLock lock(trees_mu_);
          r.names.reserve(trees_.size());
          r.versions.reserve(trees_.size());
          for (const auto& [name, deployed] : trees_) {
            r.names.push_back(name);
            r.versions.push_back(deployed.version);
          }
        }
        reply(conn, r.encode());
        return;
      }
      case MsgType::kCancelJob: {
        const auto req = net::CancelJobRequest::decode(frame);
        const JobHandle job = service_.find(req.job);
        if (!job.valid()) {
          stats_.error_replies.fetch_add(1, std::memory_order_relaxed);
          reply(conn, net::ErrorReply{"unknown job"}.encode());
          return;
        }
        reply(conn, net::CancelResultReply{req.job, job.cancel()}.encode());
        return;
      }
      default:
        // A reply type, or a type added by a newer client.
        stats_.error_replies.fetch_add(1, std::memory_order_relaxed);
        reply(conn, net::ErrorReply{std::string("unexpected message type: ") +
                                    net::to_string(frame.type)}
                        .encode());
        return;
    }
  } catch (const net::WireError& e) {
    // Malformed payload of a well-framed message: report, keep serving.
    stats_.error_replies.fetch_add(1, std::memory_order_relaxed);
    reply(conn, net::ErrorReply{std::string("malformed request: ") + e.what()}
                    .encode());
  }
}

std::size_t Server::inflight_jobs() {
  std::erase_if(inflight_,
                [](const JobHandle& j) { return j.finished(); });
  return inflight_.size();
}

void Server::handle_submit(Connection& conn, const net::Frame& frame) {
  // Admission control — bounded ledgers, explicit BUSY, never an unbounded
  // queue of accepted work.
  std::erase_if(conn.jobs, [](const JobHandle& j) { return j.finished(); });
  if (conn.jobs.size() >= config_.max_jobs_per_connection) {
    stats_.busy_replies.fetch_add(1, std::memory_order_relaxed);
    reply(conn, net::BusyReply{"per-connection job quota reached"}.encode());
    return;
  }
  if (inflight_jobs() >= config_.max_inflight_jobs) {
    stats_.busy_replies.fetch_add(1, std::memory_order_relaxed);
    reply(conn, net::BusyReply{"server at max in-flight jobs"}.encode());
    return;
  }

  JobHandle job;
  try {
    if (frame.type == net::MsgType::kSubmitDistill) {
      const auto req = net::SubmitDistillRequest::decode(frame);
      job = service_.submit_distill(req.scenario, req.overrides);
    } else {
      const auto req = net::SubmitInterpretRequest::decode(frame);
      job = service_.submit_interpret(req.scenario, req.overrides);
    }
  } catch (const std::invalid_argument& e) {
    // Outside the service's job limits: refused before any job exists.
    stats_.error_replies.fetch_add(1, std::memory_order_relaxed);
    reply(conn, net::ErrorReply{e.what()}.encode());
    return;
  }
  inflight_.push_back(job);
  conn.jobs.push_back(job);
  stats_.jobs_admitted.fetch_add(1, std::memory_order_relaxed);
  reply(conn, net::SubmittedReply{job.id()}.encode());
}

void Server::handle_result(Connection& conn, const net::Frame& frame) {
  const auto req = net::ResultRequest::decode(frame);
  const JobHandle job = service_.find(req.job);
  if (!job.valid()) {
    stats_.error_replies.fetch_add(1, std::memory_order_relaxed);
    reply(conn, net::ErrorReply{"unknown job"}.encode());
    return;
  }
  // Results are served only for finished jobs, so the accessors below
  // never block the loop thread; clients poll first.
  const JobStatus status = job.status();
  if (status != JobStatus::kDone) {
    stats_.error_replies.fetch_add(1, std::memory_order_relaxed);
    std::string msg = std::string("job not done: ") + to_string(status);
    if (status == JobStatus::kFailed) msg += " (" + job.error() + ")";
    reply(conn, net::ErrorReply{std::move(msg)}.encode());
    return;
  }
  if (job.kind() == JobKind::kDistill) {
    const api::DistillRun& run = job.distill_run();
    net::DistillResultReply r;
    r.job = req.job;
    r.samples = run.result.samples_collected;
    r.leaves = static_cast<std::uint32_t>(run.result.tree.leaf_count());
    r.fidelity = run.result.fidelity;
    r.tree_text = tree::serialize(run.result.tree);
    reply(conn, r.encode());
  } else {
    const api::InterpretRun& run = job.interpret_run();
    net::InterpretResultReply r;
    r.job = req.job;
    r.divergence = run.result.divergence;
    r.mask_l1 = run.result.mask_l1;
    r.entropy = run.result.entropy;
    r.edges.reserve(run.result.ranked.size());
    r.vertices.reserve(run.result.ranked.size());
    r.masks.reserve(run.result.ranked.size());
    for (const auto& c : run.result.ranked) {
      r.edges.push_back(static_cast<std::uint32_t>(c.edge));
      r.vertices.push_back(static_cast<std::uint32_t>(c.vertex));
      r.masks.push_back(c.mask);
    }
    reply(conn, r.encode());
  }
}

void Server::reply(Connection& conn, const net::Frame& frame) {
  net::encode_frame(frame, conn.outbuf);
}

void Server::flush(Connection& conn) {
  const int fd = conn.fd;
  while (conn.out_off < conn.outbuf.size()) {
    const ssize_t n =
        net::io::send(fd, conn.outbuf.data() + conn.out_off,
                      conn.outbuf.size() - conn.out_off, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_off += static_cast<std::size_t>(n);
      // Send progress resets the slow-loris clock.
      conn.stall_since = std::chrono::steady_clock::now();
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // Kernel buffer full: keep the remainder, ask for EPOLLOUT, and
      // enforce the bounded-buffer contract on the unsent tail.
      if (conn.outbuf.size() - conn.out_off > config_.max_write_buffer_bytes) {
        stats_.connections_dropped.fetch_add(1, std::memory_order_relaxed);
        close_connection(fd);
        return;
      }
      if (!conn.want_write) {
        conn.want_write = true;
        conn.stall_since = std::chrono::steady_clock::now();
        loop_.modify(fd, EPOLLIN | EPOLLOUT);
      }
      return;
    }
    // EPIPE / ECONNRESET: peer is gone.
    close_connection(fd);
    return;
  }
  conn.outbuf.clear();
  conn.out_off = 0;
  if (conn.want_write) {
    conn.want_write = false;
    loop_.modify(fd, EPOLLIN);
  }
  // Once draining, a fully flushed connection has nothing left to live
  // for — close it, and let the last close stop the loop.
  if (draining_) close_connection(fd);
}

void Server::close_connection(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  loop_.remove(fd);
  ::close(fd);
  // The connection's jobs stay in inflight_ (they still occupy workers);
  // the ledger prunes them as they finish.
  conns_.erase(it);
  if (draining_ && conns_.empty()) loop_.stop();
}

}  // namespace metis::serve
