// Tests for the durable snapshot store (store/snapshot_store.h) and its
// integration with the serving front-end:
//
//  * publish/load round-trips (bitwise), monotonic versioning, retention
//    GC, percent-encoded keys;
//  * corruption handling — damaged artifacts are quarantined (never
//    deleted) at boot AND at load time, the previous complete version is
//    served, and version numbers are never reused;
//  * crash residue — orphaned *.tmp.* files from kills mid-publish are
//    swept at boot (the temp-litter reboot regression);
//  * manifest reconciliation — a corrupt/missing MANIFEST is rebuilt
//    from the authoritative objects scan;
//  * Chaos.* — seeded ENOSPC/EIO/EINTR/short-write schedules through the
//    util::fsio shim (override with METIS_CHAOS_SEED): every publish
//    either returns durably or throws with state unchanged;
//  * CrashRecovery.* — a fork+kill sweep that _exit(42)s the process at
//    EVERY fs syscall index in turn mid-publish (METIS_CRASH_SEED layers
//    fault noise on top) and asserts reboot always lands on a complete,
//    bitwise-identical version;
//  * server integration — warm boot before listeners, kListTrees
//    versions over the wire, durable-first auto-deploy (a rejected
//    publish is counted, never served), and a restart-under-traffic run
//    with zero wrong decisions.
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "metis/api/registry.h"
#include "metis/net/client.h"
#include "metis/nn/mlp.h"
#include "metis/nn/serialize.h"
#include "metis/serve/server.h"
#include "metis/store/snapshot_store.h"
#include "metis/tree/cart.h"
#include "metis/tree/flat_tree.h"
#include "metis/tree/tree_io.h"
#include "metis/util/fault.h"
#include "metis/util/rng.h"

namespace metis {
namespace {

namespace fs = std::filesystem;

// ---- fixtures ---------------------------------------------------------------

std::string unique_store_dir() {
  static std::atomic<int> counter{0};
  std::string dir = "/tmp/metis_store_test_" + std::to_string(::getpid()) +
                    "_" + std::to_string(counter.fetch_add(1));
  fs::remove_all(dir);
  return dir;
}

std::string unique_socket_path() {
  static std::atomic<int> counter{0};
  return "/tmp/metis_store_test_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

// Small but non-trivial tree over 3 features (same shape as net_test's).
tree::DecisionTree make_test_tree(std::uint64_t seed = 5) {
  Rng rng(seed);
  tree::Dataset data;
  for (std::size_t i = 0; i < 500; ++i) {
    std::vector<double> row = {rng.uniform(), rng.uniform(), rng.uniform()};
    const double label = (row[0] > 0.5 ? 2.0 : 0.0) + (row[1] > row[2]);
    data.add(std::move(row), label);
  }
  return tree::DecisionTree::fit(
      data, {.task = tree::Task::kClassification, .max_depth = 6});
}

bool bit_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// The on-disk object name for a plain ([A-Za-z0-9_-]) key.
std::string object_name(const std::string& key, const char* kind,
                        std::uint64_t version) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%020llu",
                static_cast<unsigned long long>(version));
  return key + "." + kind + ".v" + buf;
}

std::string slurp_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  return text;
}

void write_raw(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

// Flip one byte inside the artifact (bit rot); the CRC must catch it.
void corrupt_file(const std::string& path) {
  std::string text = slurp_file(path);
  ASSERT_FALSE(text.empty());
  text[text.size() * 2 / 3] ^= 0x20;
  write_raw(path, text);
}

std::size_t quarantine_count(const std::string& dir) {
  std::size_t n = 0;
  for (const auto& e : fs::directory_iterator(dir + "/quarantine")) {
    if (e.is_regular_file()) ++n;
  }
  return n;
}

std::uint64_t chaos_seed() {
  if (const char* env = std::getenv("METIS_CHAOS_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 4242;
}

// ---- publish/load basics ----------------------------------------------------

TEST(Store, PublishLoadRoundTripBitwise) {
  const std::string dir = unique_store_dir();
  store::SnapshotStore s({.dir = dir});
  const std::string payload = "some opaque artifact bytes \x01\x02\xff";
  EXPECT_EQ(s.publish(store::ArtifactKind::kTree, "k", payload), 1u);
  std::uint64_t version = 0;
  EXPECT_EQ(s.load_payload(store::ArtifactKind::kTree, "k", &version), payload);
  EXPECT_EQ(version, 1u);
  EXPECT_EQ(s.latest_version(store::ArtifactKind::kTree, "k"), 1u);
}

TEST(Store, TreeAndParamsRoundTripThroughTypedHelpers) {
  const std::string dir = unique_store_dir();
  store::SnapshotStore s({.dir = dir});

  const tree::DecisionTree t = make_test_tree();
  EXPECT_EQ(s.publish_tree("abr", t), 1u);
  const tree::DecisionTree back = s.load_tree("abr");
  EXPECT_EQ(tree::serialize(back), tree::serialize(t));

  Rng rng(7);
  nn::Mlp a({3, 8, 2}, nn::Activation::kTanh, rng);
  nn::Mlp b({3, 8, 2}, nn::Activation::kTanh, rng);  // different init
  EXPECT_EQ(s.publish_params("teacher", a.parameters()), 1u);
  ASSERT_TRUE(s.load_params("teacher", b.parameters()));
  const auto pa = a.parameters();
  const auto pb = b.parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    const auto da = pa[i]->value().data();
    const auto db = pb[i]->value().data();
    ASSERT_EQ(da.size(), db.size());
    for (std::size_t j = 0; j < da.size(); ++j) {
      EXPECT_TRUE(bit_equal(da[j], db[j]));
    }
  }
  // Kinds are separate namespaces: no tree named "teacher".
  EXPECT_EQ(s.latest_version(store::ArtifactKind::kTree, "teacher"), 0u);
}

TEST(Store, VersionsAreMonotonicAndRetentionGcs) {
  const std::string dir = unique_store_dir();
  store::SnapshotStore s({.dir = dir, .retain = 2});
  for (std::uint64_t v = 1; v <= 5; ++v) {
    EXPECT_EQ(s.publish(store::ArtifactKind::kTree, "k",
                        "payload v" + std::to_string(v)),
              v);
  }
  EXPECT_EQ(s.latest_version(store::ArtifactKind::kTree, "k"), 5u);
  EXPECT_EQ(s.load_payload(store::ArtifactKind::kTree, "k"), "payload v5");
  // Only the newest `retain` versions survive on disk.
  EXPECT_FALSE(fs::exists(dir + "/objects/" + object_name("k", "tree", 3)));
  EXPECT_TRUE(fs::exists(dir + "/objects/" + object_name("k", "tree", 4)));
  EXPECT_TRUE(fs::exists(dir + "/objects/" + object_name("k", "tree", 5)));
  // GC never touches quarantine.
  EXPECT_EQ(quarantine_count(dir), 0u);
}

TEST(Store, KeysArePercentEncodedNotPathComponents) {
  const std::string dir = unique_store_dir();
  store::SnapshotStore s({.dir = dir});
  const std::string tricky = "abr/../trace #7";
  EXPECT_EQ(s.publish(store::ArtifactKind::kTree, tricky, "payload"), 1u);
  EXPECT_EQ(s.load_payload(store::ArtifactKind::kTree, tricky), "payload");
  // Nothing escaped objects/: exactly one object file, '%'-encoded.
  std::vector<std::string> names;
  for (const auto& e : fs::directory_iterator(dir + "/objects")) {
    names.push_back(e.path().filename().string());
  }
  ASSERT_EQ(names.size(), 1u);
  EXPECT_NE(names[0].find("%2F"), std::string::npos);  // '/'
  EXPECT_EQ(names[0].find('/'), std::string::npos);

  // The encoded key survives a reboot and decodes back in list().
  store::SnapshotStore reopened({.dir = dir});
  const auto infos = reopened.list();
  ASSERT_EQ(infos.size(), 1u);
  EXPECT_EQ(infos[0].key, tricky);
  EXPECT_EQ(infos[0].version, 1u);
}

TEST(Store, ListIsKeySortedAndComplete) {
  const std::string dir = unique_store_dir();
  store::SnapshotStore s({.dir = dir});
  ASSERT_EQ(s.publish(store::ArtifactKind::kTree, "zeta", "z"), 1u);
  ASSERT_EQ(s.publish(store::ArtifactKind::kTree, "alpha", "a"), 1u);
  ASSERT_EQ(s.publish(store::ArtifactKind::kTree, "alpha", "a2"), 2u);
  ASSERT_EQ(s.publish(store::ArtifactKind::kParams, "alpha", "p"), 1u);
  const auto infos = s.list();
  ASSERT_EQ(infos.size(), 3u);
  EXPECT_EQ(infos[0].kind, store::ArtifactKind::kTree);
  EXPECT_EQ(infos[0].key, "alpha");
  EXPECT_EQ(infos[0].version, 2u);
  EXPECT_EQ(infos[1].key, "zeta");
  EXPECT_EQ(infos[2].kind, store::ArtifactKind::kParams);
  EXPECT_EQ(infos[2].key, "alpha");
}

TEST(Store, EmptyKeyRejected) {
  const std::string dir = unique_store_dir();
  store::SnapshotStore s({.dir = dir});
  EXPECT_THROW(s.publish(store::ArtifactKind::kTree, "", "x"),
               std::invalid_argument);
  EXPECT_THROW(s.load_payload(store::ArtifactKind::kTree, "missing"),
               std::runtime_error);
}

// ---- corruption and recovery ------------------------------------------------

TEST(Store, CorruptLatestQuarantinedAtBootAndPreviousServed) {
  const std::string dir = unique_store_dir();
  {
    store::SnapshotStore s({.dir = dir});
    ASSERT_EQ(s.publish(store::ArtifactKind::kTree, "k", "payload v1"), 1u);
    ASSERT_EQ(s.publish(store::ArtifactKind::kTree, "k", "payload v2"), 2u);
  }
  corrupt_file(dir + "/objects/" + object_name("k", "tree", 2));

  store::SnapshotStore s({.dir = dir});
  EXPECT_EQ(s.recovery().quarantined, 1u);
  EXPECT_EQ(s.recovery().keys_recovered, 1u);
  EXPECT_EQ(s.recovery().versions_seen, 1u);
  // Damaged evidence is preserved, not deleted.
  EXPECT_GE(quarantine_count(dir), 1u);
  std::uint64_t version = 0;
  EXPECT_EQ(s.load_payload(store::ArtifactKind::kTree, "k", &version),
            "payload v1");
  EXPECT_EQ(version, 1u);
  // Version numbers are never reused after a quarantine.
  EXPECT_EQ(s.publish(store::ArtifactKind::kTree, "k", "payload v3"), 3u);
}

TEST(Store, BitRotUnderRunningStoreFallsBackAtLoadTime) {
  const std::string dir = unique_store_dir();
  store::SnapshotStore s({.dir = dir});
  ASSERT_EQ(s.publish(store::ArtifactKind::kTree, "k", "payload v1"), 1u);
  ASSERT_EQ(s.publish(store::ArtifactKind::kTree, "k", "payload v2"), 2u);
  corrupt_file(dir + "/objects/" + object_name("k", "tree", 2));

  std::uint64_t version = 0;
  EXPECT_EQ(s.load_payload(store::ArtifactKind::kTree, "k", &version),
            "payload v1");
  EXPECT_EQ(version, 1u);
  EXPECT_GE(quarantine_count(dir), 1u);
  EXPECT_EQ(s.latest_version(store::ArtifactKind::kTree, "k"), 1u);
}

TEST(Store, TruncatedArtifactIsQuarantinedNotTrusted) {
  const std::string dir = unique_store_dir();
  {
    store::SnapshotStore s({.dir = dir});
    ASSERT_EQ(s.publish(store::ArtifactKind::kTree, "k", "payload v1"), 1u);
  }
  const std::string path = dir + "/objects/" + object_name("k", "tree", 1);
  const std::string text = slurp_file(path);
  write_raw(path, text.substr(0, text.size() / 2));

  store::SnapshotStore s({.dir = dir});
  EXPECT_EQ(s.recovery().quarantined, 1u);
  EXPECT_EQ(s.recovery().keys_recovered, 0u);
  EXPECT_THROW(s.load_payload(store::ArtifactKind::kTree, "k"),
               std::runtime_error);
  // A fresh publish under the wiped key works and the store stays sane.
  EXPECT_GE(s.publish(store::ArtifactKind::kTree, "k", "fresh"), 1u);
  EXPECT_EQ(s.load_payload(store::ArtifactKind::kTree, "k"), "fresh");
}

TEST(Store, MislabeledArtifactIsQuarantined) {
  const std::string dir = unique_store_dir();
  {
    store::SnapshotStore s({.dir = dir});
    ASSERT_EQ(s.publish(store::ArtifactKind::kTree, "k", "payload"), 1u);
  }
  // A valid frame renamed to claim a different version: the header names
  // the kind/key/version the FILENAME claims, so relabeling is detected.
  const std::string src = dir + "/objects/" + object_name("k", "tree", 1);
  const std::string dst = dir + "/objects/" + object_name("k", "tree", 9);
  fs::rename(src, dst);

  store::SnapshotStore s({.dir = dir});
  EXPECT_EQ(s.recovery().quarantined, 1u);
  EXPECT_EQ(s.recovery().keys_recovered, 0u);
  // Every version of the key was damaged, so the key is gone and a fresh
  // publish restarts at v1 (the quarantined impostor keeps its own name).
  EXPECT_EQ(s.publish(store::ArtifactKind::kTree, "k", "real"), 1u);
  EXPECT_EQ(s.load_payload(store::ArtifactKind::kTree, "k"), "real");
}

TEST(Store, TempLitterSweptOnReboot) {
  const std::string dir = unique_store_dir();
  {
    store::SnapshotStore s({.dir = dir});
    ASSERT_EQ(s.publish(store::ArtifactKind::kTree, "k", "payload v1"), 1u);
  }
  // Crash residue: staged temps beside the destination (the
  // write_file_atomic naming), at both levels the store writes to.
  write_raw(dir + "/objects/" + object_name("k", "tree", 2) + ".tmp.123",
            "half-written art");
  write_raw(dir + "/MANIFEST.tmp.456", "half-written manifest");

  store::SnapshotStore s({.dir = dir});
  EXPECT_EQ(s.recovery().temps_removed, 2u);
  EXPECT_EQ(s.recovery().quarantined, 0u);  // temps are residue, not evidence
  EXPECT_FALSE(
      fs::exists(dir + "/objects/" + object_name("k", "tree", 2) + ".tmp.123"));
  EXPECT_FALSE(fs::exists(dir + "/MANIFEST.tmp.456"));
  EXPECT_EQ(s.load_payload(store::ArtifactKind::kTree, "k"), "payload v1");
}

TEST(Store, CorruptManifestQuarantinedAndRebuilt) {
  const std::string dir = unique_store_dir();
  {
    store::SnapshotStore s({.dir = dir});
    ASSERT_EQ(s.publish(store::ArtifactKind::kTree, "k", "payload v1"), 1u);
  }
  write_raw(dir + "/MANIFEST", "scribbled over by something else");

  store::SnapshotStore s({.dir = dir});
  EXPECT_TRUE(s.recovery().manifest_rebuilt);
  EXPECT_EQ(s.recovery().quarantined, 1u);
  EXPECT_EQ(s.load_payload(store::ArtifactKind::kTree, "k"), "payload v1");

  // The rebuilt manifest is valid again: next boot rebuilds nothing.
  store::SnapshotStore again({.dir = dir});
  EXPECT_FALSE(again.recovery().manifest_rebuilt);
  EXPECT_EQ(again.recovery().quarantined, 0u);
}

TEST(Store, MissingManifestRebuiltQuietly) {
  const std::string dir = unique_store_dir();
  {
    store::SnapshotStore s({.dir = dir});
    ASSERT_EQ(s.publish(store::ArtifactKind::kTree, "k", "payload v1"), 1u);
  }
  fs::remove(dir + "/MANIFEST");
  store::SnapshotStore s({.dir = dir});
  EXPECT_TRUE(s.recovery().manifest_rebuilt);
  EXPECT_EQ(s.recovery().quarantined, 0u);
  EXPECT_EQ(s.load_payload(store::ArtifactKind::kTree, "k"), "payload v1");
}

TEST(Store, ForeignFileInObjectsIsQuarantinedNotFatal) {
  const std::string dir = unique_store_dir();
  {
    store::SnapshotStore s({.dir = dir});
    ASSERT_EQ(s.publish(store::ArtifactKind::kTree, "k", "payload v1"), 1u);
  }
  write_raw(dir + "/objects/README", "what is this doing here");
  store::SnapshotStore s({.dir = dir});
  EXPECT_EQ(s.recovery().quarantined, 1u);
  EXPECT_EQ(s.load_payload(store::ArtifactKind::kTree, "k"), "payload v1");
}

// ---- fault injection through the fsio shim ----------------------------------

TEST(Store, EIntrAtEveryFsSiteStillPublishes) {
  const std::string dir = unique_store_dir();
  store::SnapshotStore s({.dir = dir});

  // Every intercepted fs syscall fails with EINTR until the budget is
  // spent: any fs retry loop that mishandles EINTR hangs or errors here.
  util::FaultSpec spec;
  spec.seed = chaos_seed();
  spec.eintr = 1.0;
  spec.max_faults = 500;
  util::FaultPlan plan(spec);
  util::set_fault_plan(&plan);

  const std::uint64_t v = s.publish(store::ArtifactKind::kTree, "k", "payload");
  util::set_fault_plan(nullptr);
  EXPECT_EQ(v, 1u);
  EXPECT_GT(plan.faults_injected(), 0u);
  EXPECT_EQ(s.load_payload(store::ArtifactKind::kTree, "k"), "payload");
}

TEST(Chaos, PublishEitherLandsDurablyOrThrowsCleanly) {
  const std::string dir = unique_store_dir();
  store::SnapshotStore s({.dir = dir, .retain = 2});
  ASSERT_EQ(s.publish(store::ArtifactKind::kTree, "k", "payload v1"), 1u);

  util::FaultSpec spec;
  spec.seed = chaos_seed();
  spec.eintr = 0.10;
  spec.short_op = 0.10;
  spec.enospc = 0.06;
  spec.eio = 0.06;
  spec.max_faults = 400;
  util::FaultPlan plan(spec);
  util::set_fault_plan(&plan);

  // Under disk chaos, publish() has exactly two outcomes: it returns a
  // version (the artifact MUST then load back bitwise) or it throws (the
  // previously-served payload MUST be untouched).
  std::string expect_payload = "payload v1";
  std::uint64_t expect_version = 1;
  std::size_t failed = 0;
  for (int i = 2; i <= 40; ++i) {
    const std::string payload = "payload v" + std::to_string(i);
    try {
      const std::uint64_t v =
          s.publish(store::ArtifactKind::kTree, "k", payload);
      EXPECT_GT(v, expect_version);
      expect_payload = payload;
      expect_version = v;
    } catch (const std::runtime_error&) {
      ++failed;
    }
    std::uint64_t version = 0;
    ASSERT_EQ(s.load_payload(store::ArtifactKind::kTree, "k", &version),
              expect_payload)
        << "after publish attempt " << i;
    ASSERT_EQ(version, expect_version);
  }
  util::set_fault_plan(nullptr);
  EXPECT_GT(plan.faults_injected(), 0u);

  // With the chaos cleared: reboot recovers the same state (failed
  // publishes may have left temp residue, never damaged artifacts).
  store::SnapshotStore reopened({.dir = dir, .retain = 2});
  EXPECT_EQ(reopened.recovery().quarantined, 0u);
  std::uint64_t version = 0;
  EXPECT_EQ(reopened.load_payload(store::ArtifactKind::kTree, "k", &version),
            expect_payload);
  EXPECT_EQ(version, expect_version);
}

// ---- crash schedules: kill at every fs syscall ------------------------------

// One sweep iteration: fork; the child installs a plan that _exit(42)s at
// fs-syscall index `kill_at` (plus optional seed noise), reopens the
// store, and publishes `payload`. Exit codes: 0 = publish returned,
// 3 = publish threw cleanly, 42 = killed at the kill-point.
int run_killed_child(const std::string& dir, const std::string& payload,
                     std::uint64_t kill_at, std::uint64_t noise_seed) {
  const pid_t pid = fork();
  if (pid == 0) {
    util::FaultSpec spec;
    spec.kill_at = kill_at;
    if (noise_seed != 0) {
      spec.seed = noise_seed;
      spec.eintr = 0.15;
      spec.short_op = 0.15;
      spec.max_faults = 50;
    }
    util::FaultPlan plan(spec);
    util::set_fault_plan(&plan);
    try {
      store::SnapshotStore s({.dir = dir, .retain = 2});
      (void)s.publish(store::ArtifactKind::kTree, "k", payload);
    } catch (const std::runtime_error&) {
      ::_exit(3);
    } catch (...) {
      ::_exit(7);
    }
    ::_exit(0);
  }
  int status = 0;
  ::waitpid(pid, &status, 0);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(CrashRecovery, KillAtEveryFsSyscallNeverLeavesStoreUnreadable) {
  const std::string dir = unique_store_dir();
  const std::string v1 = "payload before the crash";
  const std::string v2 = "payload the crashing publisher was writing";
  {
    store::SnapshotStore s({.dir = dir, .retain = 2});
    ASSERT_EQ(s.publish(store::ArtifactKind::kTree, "k", v1), 1u);
  }
  const std::uint64_t noise_seed =
      std::getenv("METIS_CRASH_SEED")
          ? std::strtoull(std::getenv("METIS_CRASH_SEED"), nullptr, 10)
          : 0;

  // Kill the publisher at fs-syscall index 0, 1, 2, ... — every open,
  // write, fsync, rename, and unlink in recovery + publish is a
  // kill-point — until a child runs past the schedule and exits clean.
  bool completed = false;
  int kills = 0;
  for (std::uint64_t i = 0; i < 100; ++i) {
    const int code = run_killed_child(dir, v2, i, noise_seed);
    ASSERT_TRUE(code == 0 || code == 3 || code == 42)
        << "child exit " << code << " at kill index " << i;
    if (code == 42) ++kills;

    // THE invariant: no matter where the kill landed, reboot serves a
    // complete artifact, bitwise one of the two published payloads.
    store::SnapshotStore s({.dir = dir, .retain = 2});
    std::string loaded;
    ASSERT_NO_THROW(loaded = s.load_payload(store::ArtifactKind::kTree, "k"))
        << "store unreadable after kill index " << i;
    ASSERT_TRUE(loaded == v1 || loaded == v2)
        << "torn payload after kill index " << i;
    if (code == 0) {
      // The child's publish returned, so durability is promised.
      ASSERT_EQ(loaded, v2) << "durable publish lost at kill index " << i;
      completed = true;
      break;
    }
  }
  ASSERT_TRUE(completed) << "no child ever ran past the kill schedule";
  EXPECT_GT(kills, 0) << "the sweep never actually killed a child";
}

TEST(CrashRecovery, RepeatedCrashesNeverReuseVersions) {
  const std::string dir = unique_store_dir();
  {
    store::SnapshotStore s({.dir = dir, .retain = 2});
    ASSERT_EQ(s.publish(store::ArtifactKind::kTree, "k", "v1"), 1u);
  }
  // Several kills mid-publish, then a clean publish: its version must be
  // strictly newer than anything any crashed child may have landed.
  for (std::uint64_t i = 2; i <= 6; ++i) {
    (void)run_killed_child(dir, "crashing", i, 0);
  }
  store::SnapshotStore s({.dir = dir, .retain = 2});
  const std::uint64_t before = s.latest_version(store::ArtifactKind::kTree, "k");
  const std::uint64_t v = s.publish(store::ArtifactKind::kTree, "k", "final");
  EXPECT_GT(v, before);
  EXPECT_EQ(s.load_payload(store::ArtifactKind::kTree, "k"), "final");
}

// ---- server integration -----------------------------------------------------

TEST(ServerStore, WarmBootServesStoreTreesBeforeAcceptingTraffic) {
  const std::string dir = unique_store_dir();
  const tree::DecisionTree ta = make_test_tree(5);
  const tree::DecisionTree tb = make_test_tree(11);
  const tree::FlatTree fa = tree::FlatTree::compile(ta);
  const tree::FlatTree fb = tree::FlatTree::compile(tb);
  {
    store::SnapshotStore s({.dir = dir});
    ASSERT_EQ(s.publish_tree("a", ta), 1u);
    ASSERT_EQ(s.publish_tree("b", tb), 1u);
    ASSERT_EQ(s.publish_tree("b", tb), 2u);
    // A params artifact must NOT be deployed as a tree.
    Rng rng(7);
    nn::Mlp net({3, 4, 2}, nn::Activation::kTanh, rng);
    ASSERT_EQ(s.publish_params("a", net.parameters()), 1u);
  }

  serve::ServerConfig cfg;
  cfg.unix_path = unique_socket_path();
  cfg.service.workers = 1;
  cfg.store_dir = dir;
  serve::Server server(cfg);
  server.start();
  // Warm boot happened before the listener bound: the trees are already
  // there for the very first connection.
  EXPECT_TRUE(server.has_tree("a"));
  EXPECT_TRUE(server.has_tree("b"));
  EXPECT_EQ(server.stats().trees_warm_booted, 2u);

  net::Client client = net::Client::connect_unix(cfg.unix_path);
  const auto listed = client.list_trees();
  ASSERT_EQ(listed.names.size(), 2u);
  EXPECT_EQ(listed.names[0], "a");
  EXPECT_EQ(listed.names[1], "b");
  ASSERT_EQ(listed.versions.size(), 2u);
  EXPECT_EQ(listed.versions[0], 1u);
  EXPECT_EQ(listed.versions[1], 2u);

  Rng rng(31);
  const std::uint64_t sa = client.open_session("a");
  const std::uint64_t sb = client.open_session("b");
  for (std::uint64_t i = 0; i < 50; ++i) {
    const std::vector<double> x = {rng.uniform(), rng.uniform(), rng.uniform()};
    EXPECT_TRUE(bit_equal(client.query(sa, i, x), fa.predict(x)));
    EXPECT_TRUE(bit_equal(client.query(sb, i, x), fb.predict(x)));
  }
  server.stop();
}

TEST(ServerStore, ListTreesReportsZeroVersionForNonStoreDeploys) {
  serve::ServerConfig cfg;
  cfg.unix_path = unique_socket_path();
  cfg.service.workers = 1;
  serve::Server server(cfg);  // no store_dir
  server.add_tree("t", tree::FlatTree::compile(make_test_tree()));
  server.start();
  net::Client client = net::Client::connect_unix(cfg.unix_path);
  const auto listed = client.list_trees();
  ASSERT_EQ(listed.names.size(), 1u);
  EXPECT_EQ(listed.names[0], "t");
  EXPECT_EQ(listed.versions[0], 0u);
  server.stop();
}

// ---- durable auto-deploy ----------------------------------------------------

class StoreRuleTeacher final : public core::Teacher {
 public:
  std::size_t action_count() const override { return 2; }
  std::size_t act(std::span<const double> state) const override {
    return state[0] > 0.5 ? 1 : 0;
  }
  double value(std::span<const double>) const override { return 0.0; }
};

class TinyEnv final : public core::RolloutEnv {
 public:
  std::size_t action_count() const override { return 2; }
  std::vector<double> reset(std::size_t episode) override {
    rng_ = Rng::derive(99, episode);
    t_ = 0;
    x_ = rng_.uniform();
    return {x_, 1.0 - x_};
  }
  nn::StepResult step(std::size_t) override {
    x_ = rng_.uniform();
    ++t_;
    nn::StepResult sr;
    sr.done = t_ >= 5;
    sr.next_state = {x_, 1.0 - x_};
    return sr;
  }
  std::vector<double> interpretable_features() const override { return {x_}; }
  std::shared_ptr<core::RolloutEnv> clone() const override {
    return std::make_shared<TinyEnv>();
  }

 private:
  Rng rng_{0};
  double x_ = 0.0;
  std::size_t t_ = 0;
};

class TinyScenario final : public api::Scenario {
 public:
  std::string key() const override { return "tiny"; }
  std::string description() const override { return "tiny rule policy"; }
  api::LocalSystem make_local(const api::ScenarioOptions&) const override {
    api::LocalSystem sys;
    sys.teacher = std::make_shared<StoreRuleTeacher>();
    sys.env = std::make_shared<TinyEnv>();
    sys.distill_defaults.collect.episodes = 2;
    sys.distill_defaults.collect.max_steps = 5;
    sys.distill_defaults.dagger_iterations = 1;
    sys.distill_defaults.max_leaves = 4;
    sys.distill_defaults.feature_names = {"x"};
    return sys;
  }
};

TEST(ServerStore, AutoDeployPublishesDurablyBeforeVisibility) {
  const std::string dir = unique_store_dir();
  api::ScenarioRegistry registry;
  registry.add(std::make_unique<TinyScenario>());

  serve::ServerConfig cfg;
  cfg.unix_path = unique_socket_path();
  cfg.service.workers = 1;
  cfg.service.registry = &registry;
  cfg.auto_deploy_distilled = true;
  cfg.store_dir = dir;
  std::string tree_text;
  {
    serve::Server server(cfg);
    server.start();
    net::Client client = net::Client::connect_unix(cfg.unix_path);
    const auto job = client.submit_distill("tiny", {});
    ASSERT_TRUE(job.has_value());
    net::JobStatusReply status;
    do {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      status = client.poll(*job);
    } while (
        !serve::is_terminal(static_cast<serve::JobStatus>(status.status)));
    ASSERT_EQ(static_cast<serve::JobStatus>(status.status),
              serve::JobStatus::kDone)
        << status.error;
    // Done implies deployed, and visible implies durable: the store
    // already holds version 1, and the wire reports the deployment as
    // store-backed.
    ASSERT_TRUE(server.has_tree("tiny"));
    ASSERT_NE(server.snapshot_store(), nullptr);
    EXPECT_EQ(server.snapshot_store()->latest_version(
                  store::ArtifactKind::kTree, "tiny"),
              1u);
    const auto listed = client.list_trees();
    ASSERT_EQ(listed.names.size(), 1u);
    EXPECT_EQ(listed.names[0], "tiny");
    EXPECT_EQ(listed.versions[0], 1u);

    tree_text = client.distill_result(*job).tree_text;
    server.stop();
  }

  // What the store persisted is bitwise what the wire returned.
  store::SnapshotStore reopened({.dir = dir});
  EXPECT_EQ(reopened.load_payload(store::ArtifactKind::kTree, "tiny"),
            tree_text);
}

// A publish the store rejects (disk full) is counted, not served and not
// retried: the job still ends kDone with its result fetchable, the tree
// stays invisible, and the next job for the key deploys normally.
TEST(Chaos, AutoDeployRejectedPublishIsCountedNotServed) {
  const std::string dir = unique_store_dir();
  api::ScenarioRegistry registry;
  registry.add(std::make_unique<TinyScenario>());

  serve::ServerConfig cfg;
  cfg.unix_path = unique_socket_path();
  cfg.service.workers = 1;
  cfg.service.registry = &registry;
  cfg.auto_deploy_distilled = true;
  cfg.store_dir = dir;
  serve::Server server(cfg);
  server.start();
  net::Client client = net::Client::connect_unix(cfg.unix_path);
  const auto run_job = [&] {
    const auto job = client.submit_distill("tiny", {});
    EXPECT_TRUE(job.has_value());
    serve::JobHandle handle = server.service().find(job.value_or(0));
    EXPECT_TRUE(handle.valid());
    if (handle.valid()) handle.wait();
    return job.value_or(0);
  };

  // Every space-consuming fs call fails with ENOSPC; socket sites are
  // untouched (ENOSPC is not applicable there).
  util::FaultSpec spec;
  spec.seed = chaos_seed();
  spec.enospc = 1.0;
  util::FaultPlan plan(spec);
  util::set_fault_plan(&plan);
  const std::uint64_t rejected = run_job();
  util::set_fault_plan(nullptr);
  EXPECT_GT(plan.faults_injected(), 0u);

  const auto status = client.poll(rejected);
  EXPECT_EQ(static_cast<serve::JobStatus>(status.status),
            serve::JobStatus::kDone)
      << status.error;
  EXPECT_FALSE(client.distill_result(rejected).tree_text.empty());
  EXPECT_FALSE(server.has_tree("tiny"));
  EXPECT_EQ(server.stats().store_publish_failures, 1u);
  EXPECT_EQ(server.stats().trees_auto_deployed, 0u);
  EXPECT_EQ(server.snapshot_store()->latest_version(
                store::ArtifactKind::kTree, "tiny"),
            0u);

  // With the disk healthy again the next job deploys; the rejected one
  // was never retried behind it.
  const std::uint64_t accepted = run_job();
  EXPECT_EQ(static_cast<serve::JobStatus>(client.poll(accepted).status),
            serve::JobStatus::kDone);
  EXPECT_TRUE(server.has_tree("tiny"));
  EXPECT_EQ(server.stats().store_publish_failures, 1u);
  EXPECT_EQ(server.stats().trees_auto_deployed, 1u);
  const auto listed = client.list_trees();
  ASSERT_EQ(listed.names.size(), 1u);
  EXPECT_EQ(listed.versions[0], 1u);
  server.stop();
}

// ---- restart under traffic --------------------------------------------------

TEST(ServerStore, RestartUnderTrafficServesZeroWrongDecisions) {
  const std::string dir = unique_store_dir();
  const tree::DecisionTree dtree = make_test_tree();
  const tree::FlatTree flat = tree::FlatTree::compile(dtree);
  {
    store::SnapshotStore s({.dir = dir});
    ASSERT_EQ(s.publish_tree("t", dtree), 1u);
  }

  serve::ServerConfig cfg;
  cfg.unix_path = unique_socket_path();
  cfg.service.workers = 1;
  cfg.store_dir = dir;
  auto server1 = std::make_unique<serve::Server>(cfg);
  server1->start();
  ASSERT_TRUE(server1->has_tree("t"));

  constexpr int kThreads = 4;
  constexpr std::uint64_t kQueriesAfterRestart = 100;
  std::atomic<bool> replacement_up{false};
  std::atomic<std::uint64_t> wrong{0};
  std::atomic<std::uint64_t> errors{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      net::ClientConfig ccfg;
      ccfg.connect_timeout_ms = 2000;
      ccfg.read_timeout_ms = 2000;
      // Generous retry budget: the client must ride out the full
      // stop -> warm-boot -> restart window on its own.
      ccfg.max_retries = 64;
      ccfg.backoff_base_ms = 2;
      ccfg.backoff_max_ms = 50;
      ccfg.seed = 1000 + static_cast<std::uint64_t>(t);
      try {
        net::Client client = net::Client::connect_unix(cfg.unix_path, ccfg);
        Rng rng(77 + static_cast<std::uint64_t>(t));
        // Hammer queries across the whole restart, then a fixed tail
        // against the replacement so it provably served traffic too.
        std::uint64_t after_restart = 0;
        for (std::uint64_t i = 0; after_restart < kQueriesAfterRestart; ++i) {
          const std::vector<double> x = {rng.uniform(), rng.uniform(),
                                         rng.uniform()};
          if (!bit_equal(client.query_robust("t", i, x), flat.predict(x))) {
            wrong.fetch_add(1);
          }
          if (replacement_up.load()) ++after_restart;
        }
      } catch (const std::exception&) {
        errors.fetch_add(1);
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  server1->stop();
  server1.reset();
  // The replacement warm-boots "t" from the store before listening — a
  // retrying client can never connect and then be told "unknown tree".
  serve::Server server2(cfg);
  server2.start();
  ASSERT_TRUE(server2.has_tree("t"));
  replacement_up.store(true);

  for (auto& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_EQ(errors.load(), 0u);
  EXPECT_GT(server2.stats().decisions_served, 0u);
  server2.stop();
}

}  // namespace
}  // namespace metis
