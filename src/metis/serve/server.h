// metis::serve::Server — the network front door over serve::Service.
//
// Two planes, one framing (net/wire.h):
//
//  * Query plane. Clients open sessions against named deployed FlatTrees
//    (add_tree) and stream kQuery frames; decisions are answered INLINE on
//    the epoll loop thread — FlatTree::predict is a microsecond-scale,
//    allocation-free array walk (the paper's Fig. 16 deployment artifact),
//    so queries never touch the job worker pool and are immune to
//    control-plane load. All frames readable at one epoll wake are decoded,
//    answered into the connection's write buffer, and flushed with a single
//    write — batching per wake, not per frame.
//
//  * Control plane. kSubmitDistill / kSubmitInterpret route to the owned
//    serve::Service and occupy its workers. Admission control is explicit
//    backpressure: past max_inflight_jobs (server-wide) or
//    max_jobs_per_connection, the submit gets an immediate kBusy reply —
//    the server never queues submissions unboundedly on behalf of a
//    client. kPoll / kResult are non-blocking table lookups (results are
//    only returned for jobs already done), so a slow distill cannot stall
//    the query plane either.
//
// Single loop thread owns every connection's state — no locks anywhere on
// the query path. add_tree() may be called while the loop runs (sessions
// hold a shared_ptr to the tree they opened, so a re-registered name
// hot-swaps for new sessions without invalidating old ones).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "metis/net/event_loop.h"
#include "metis/net/listener.h"
#include "metis/net/wire.h"
#include "metis/serve/service.h"
#include "metis/store/snapshot_store.h"
#include "metis/tree/flat_tree.h"
#include "metis/util/mutex.h"

namespace metis::serve {

struct ServerConfig {
  // Unix-domain socket path; empty disables the unix listener.
  std::string unix_path;
  // Also listen on 127.0.0.1:tcp_port (0 = ephemeral, see Server::tcp_port).
  bool tcp = false;
  std::uint16_t tcp_port = 0;
  // Per-frame size cap; oversized frames close the offending connection.
  std::size_t max_frame_bytes = net::kDefaultMaxFrameBytes;
  // Admission control: server-wide cap on non-terminal control-plane jobs.
  std::size_t max_inflight_jobs = 8;
  // ...and the per-connection share of it.
  std::size_t max_jobs_per_connection = 4;
  // A connection whose unsent replies exceed this is dropped (slow or
  // stalled consumer) rather than buffered without bound.
  std::size_t max_write_buffer_bytes = 4u << 20;

  // --- robustness knobs (each 0 = disabled) ---------------------------------
  // Reap connections with no inbound bytes for this long (wedged/silent
  // peers — a connected client that never speaks still costs an fd).
  std::uint64_t idle_timeout_ms = 0;
  // Reap connections whose pending replies made no send progress for this
  // long (slow-loris readers that accept a byte an hour — the bounded
  // write buffer alone cannot catch those).
  std::uint64_t write_stall_timeout_ms = 0;
  // Cadence of the reaper timer on the loop thread.
  std::uint64_t housekeeping_interval_ms = 50;
  // Upper bound on graceful stop(): pending replies get this long to
  // drain before remaining connections are cut. Always > 0.
  std::uint64_t stop_timeout_ms = 1000;
  // Hot-swap every completed distill job's tree into the query plane
  // under its scenario key (via add_tree), so clients can open sessions
  // against what the control plane just trained without any caller-side
  // wiring. The deploy runs on the job's worker as the job completes,
  // before its status reads kDone: "done" implies "deployed". With a
  // store configured, the tree is published durably FIRST — a publish
  // the store rejects (disk full) is counted in store_publish_failures,
  // never served and not retried; the job still ends kDone.
  bool auto_deploy_distilled = false;

  // --- durability (empty = no store) ----------------------------------------
  // Directory of the versioned snapshot store (store::SnapshotStore).
  // start() warm-boots the query plane from it BEFORE binding listeners:
  // every tree artifact that survives the recovery scan is deployed, so
  // a restarted server answers queries for everything it served before
  // the crash without re-distilling.
  std::string store_dir;
  // Complete versions retained per artifact key (see SnapshotStoreConfig).
  std::size_t store_retain = 2;

  // The owned control-plane service (workers, registry, cache bound...).
  ServiceConfig service;
};

class Server {
 public:
  explicit Server(ServerConfig config);
  ~Server();  // stop(), then the Service dtor drains in-flight jobs

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Registers/replaces a deployable tree under `name`. Thread-safe; may be
  // called while serving (existing sessions keep the tree they opened).
  // `version` is the snapshot-store version backing this deployment (0 =
  // not store-backed), reported by kListTrees.
  void add_tree(const std::string& name, tree::FlatTree tree,
                std::uint64_t version = 0);
  // True once a tree is deployed under `name` (thread-safe). With
  // auto_deploy_distilled this already holds when a distill job for
  // `name` reports kDone.
  [[nodiscard]] bool has_tree(const std::string& name) const;

  // Binds the configured listeners and spawns the loop thread.
  void start();
  // Graceful, bounded stop: stops accepting, lets pending replies drain
  // for up to stop_timeout_ms, then closes every connection and unbinds.
  // Idempotent. Jobs already submitted to the Service keep running (the
  // Service drains them on destruction); stop() does not wait for them.
  void stop();

  [[nodiscard]] Service& service() { return service_; }
  // The durable store behind the query plane; nullptr when store_dir is
  // empty. Valid for the Server's lifetime (constructed eagerly so
  // callers can publish before start()).
  [[nodiscard]] store::SnapshotStore* snapshot_store() {
    return store_ ? &*store_ : nullptr;
  }
  // Resolved TCP port, valid after start() when config.tcp is set.
  [[nodiscard]] std::uint16_t tcp_port() const { return tcp_port_; }
  [[nodiscard]] const std::string& unix_path() const {
    return config_.unix_path;
  }

  struct Stats {
    std::uint64_t connections_accepted = 0;
    std::uint64_t sessions_opened = 0;
    std::uint64_t decisions_served = 0;
    std::uint64_t jobs_admitted = 0;
    std::uint64_t busy_replies = 0;
    std::uint64_t error_replies = 0;
    std::uint64_t connections_dropped = 0;  // protocol/overflow closes
    std::uint64_t connections_reaped = 0;   // idle/write-stall timeouts
    std::uint64_t trees_auto_deployed = 0;  // auto_deploy_distilled swaps
    std::uint64_t trees_warm_booted = 0;    // store recoveries deployed
    std::uint64_t store_publish_failures = 0;  // auto-deploys the store refused
  };
  [[nodiscard]] Stats stats() const;

 private:
  struct Session {
    std::shared_ptr<const tree::FlatTree> tree;
  };
  // Owned by the loop thread exclusively — no locks on the query path.
  struct Connection {
    int fd = -1;
    net::FrameDecoder decoder;
    std::vector<std::uint8_t> outbuf;
    std::size_t out_off = 0;   // sent prefix of outbuf
    bool want_write = false;   // EPOLLOUT currently armed
    std::map<std::uint64_t, Session> sessions;
    std::vector<JobHandle> jobs;  // for the per-connection quota
    // Reaper bookkeeping: last inbound byte, and the last time a pending
    // flush made send progress (meaningful only while want_write).
    std::chrono::steady_clock::time_point last_activity;
    std::chrono::steady_clock::time_point stall_since;

    explicit Connection(std::size_t max_frame_bytes)
        : decoder(max_frame_bytes) {}
  };

  void on_accept(const net::Listener& listener) REQUIRES(loop_role_);
  void on_connection_event(int fd, std::uint32_t events) REQUIRES(loop_role_);
  void handle_frame(Connection& conn, const net::Frame& frame)
      REQUIRES(loop_role_);
  void handle_submit(Connection& conn, const net::Frame& frame)
      REQUIRES(loop_role_);
  void handle_result(Connection& conn, const net::Frame& frame)
      REQUIRES(loop_role_);
  void reply(Connection& conn, const net::Frame& frame) REQUIRES(loop_role_);
  void flush(Connection& conn) REQUIRES(loop_role_);
  void close_connection(int fd) REQUIRES(loop_role_);
  [[nodiscard]] std::size_t inflight_jobs() REQUIRES(loop_role_);
  // Periodic loop-thread maintenance: idle/write-stall reaping.
  void housekeeping() REQUIRES(loop_role_);
  // The auto_deploy_distilled hook, run on the finished job's worker.
  void deploy(const std::string& key, const api::DistillRun& run)
      EXCLUDES(deploy_mu_);
  // Begins the graceful shutdown on the loop thread: unregisters the
  // listeners, flushes/closes connections, arms the stop deadline.
  void begin_drain() REQUIRES(loop_role_);

  ServerConfig config_;
  net::EventLoop loop_;
  std::optional<net::Listener> unix_listener_;
  std::optional<net::Listener> tcp_listener_;
  std::uint16_t tcp_port_ = 0;
  std::thread loop_thread_;
  bool started_ = false;

  // Deployed trees; the only cross-thread state the query plane touches,
  // and only at open-session/list time (queries use the session's
  // shared_ptr). `version` is the snapshot-store version the deployment
  // came from (0 = not store-backed).
  struct Deployed {
    std::shared_ptr<const tree::FlatTree> tree;
    std::uint64_t version = 0;
  };
  mutable util::Mutex trees_mu_;
  std::map<std::string, Deployed> trees_ GUARDED_BY(trees_mu_);
  // The durable store (engaged when config_.store_dir is non-empty).
  // Constructed (and crash-recovered) in the Server constructor; the
  // query plane is warm-booted from it in start() before listeners bind.
  std::optional<store::SnapshotStore> store_;
  // Held by deploy() from publish to add_tree (see deploy()).
  util::Mutex deploy_mu_;

  // "Loop thread only" as a compile-time capability: a zero-cost
  // util::ThreadRole acquired by the loop callbacks (and by stop()'s
  // teardown, AFTER joining the loop thread). Everything below is
  // GUARDED_BY it, so touching connection state off the loop thread is a
  // clang -Werror=thread-safety build break, not a latent race.
  util::ThreadRole loop_role_;
  std::map<int, std::unique_ptr<Connection>> conns_ GUARDED_BY(loop_role_);
  std::uint64_t next_session_ GUARDED_BY(loop_role_) = 1;
  // Admission-control ledger.
  std::vector<JobHandle> inflight_ GUARDED_BY(loop_role_);
  // Graceful-stop state: set by begin_drain(); once draining, a fully
  // flushed connection closes instead of idling, and the last close (or
  // the stop deadline) stops the loop.
  bool draining_ GUARDED_BY(loop_role_) = false;

  // Written by the loop thread (the auto-deploy counters by Service
  // workers, in deploy()), read by stats() from any thread. Every
  // counter is monotonic and independently atomic (relaxed): stats() is a
  // monitoring snapshot, not a transaction, so no cross-counter ordering
  // is promised — a snapshot may be mid-update but never torn. Audited
  // for the thread-safety contract; keep new counters atomic too.
  struct AtomicStats {
    std::atomic<std::uint64_t> connections_accepted{0};
    std::atomic<std::uint64_t> sessions_opened{0};
    std::atomic<std::uint64_t> decisions_served{0};
    std::atomic<std::uint64_t> jobs_admitted{0};
    std::atomic<std::uint64_t> busy_replies{0};
    std::atomic<std::uint64_t> error_replies{0};
    std::atomic<std::uint64_t> connections_dropped{0};
    std::atomic<std::uint64_t> connections_reaped{0};
    std::atomic<std::uint64_t> trees_auto_deployed{0};
    std::atomic<std::uint64_t> trees_warm_booted{0};
    std::atomic<std::uint64_t> store_publish_failures{0};
  };
  AtomicStats stats_;

  // Last member, so it is destroyed first: ~Service drains running jobs,
  // whose deploy hook still touches store_, trees_ and stats_ above.
  Service service_;
};

}  // namespace metis::serve
