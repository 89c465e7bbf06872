// Tests for the multi-tenant design store (DESIGN.md §14): content-addressed
// hashing (demo generator keys and aux file bytes), parse-once snapshot
// caching with copy-on-write materialization, bitwise cached-vs-fresh GP
// parity, concurrent snapshot sharing, LRU eviction + pin semantics, the
// server's submit-batch sweep API with (design, config) result dedup, group
// retirement beyond result_capacity, and design/group recovery from
// fabricated journals.
//
// Determinism note: every placement here runs at thread count 1 (the server
// default), so the bitwise comparisons hold in every CI lane.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/placer.h"
#include "db/design_snapshot.h"
#include "io/bookshelf.h"
#include "io/generator.h"
#include "io/journal.h"
#include "server/design_store.h"
#include "server/recovery.h"
#include "server/server.h"

namespace xplace::server {
namespace {

namespace fs = std::filesystem;

fs::path fresh_dir(const std::string& tag) {
  const fs::path dir =
      fs::temp_directory_path() /
      ("xplace_design_store_" + tag + "_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

/// Writes a small generated design to disk and returns its .aux path.
std::string write_demo_aux(const fs::path& dir, std::size_t cells,
                           std::uint64_t seed) {
  io::GeneratorSpec gen;
  gen.name = "demo";
  gen.num_cells = cells;
  gen.num_nets = cells + cells / 20;
  gen.seed = seed;
  const db::Database db = io::generate(gen);
  io::write_bookshelf(db, dir.string(), "demo");
  return (dir / "demo.aux").string();
}

// ---------------------------------------------------------------------------
// Content hashing
// ---------------------------------------------------------------------------

TEST(DesignHash, DemoKeyIsDeterministicAndInputSensitive) {
  const std::uint64_t h = io::demo_content_hash(500, 11);
  EXPECT_EQ(h, io::demo_content_hash(500, 11));
  EXPECT_NE(h, io::demo_content_hash(501, 11));
  EXPECT_NE(h, io::demo_content_hash(500, 12));
  EXPECT_NE(h, 0u);
}

TEST(DesignHash, AuxHashTracksFileBytes) {
  const fs::path dir = fresh_dir("auxhash");
  const std::string aux = write_demo_aux(dir, 120, 7);
  const std::uint64_t h1 = io::hash_bookshelf_aux(aux);
  EXPECT_EQ(h1, io::hash_bookshelf_aux(aux));

  // Any byte change in a component file renames the content.
  {
    std::ofstream nodes((dir / "demo.nodes").string(), std::ios::app);
    nodes << "\n# trailing comment\n";
  }
  const std::uint64_t h2 = io::hash_bookshelf_aux(aux);
  EXPECT_NE(h1, h2);
  EXPECT_THROW(io::hash_bookshelf_aux((dir / "missing.aux").string()),
               std::exception);
  fs::remove_all(dir);
}

TEST(DesignHash, SnapshotCarriesHashAndGeometry) {
  const auto snap = io::make_demo_snapshot(150, 5);
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->content_hash, io::demo_content_hash(150, 5));
  EXPECT_EQ(snap->num_cells(), snap->base.num_physical());
  EXPECT_GT(snap->num_nets(), 0u);
  EXPECT_GT(snap->resident_bytes, 0u);
  EXPECT_EQ(snap->source, "demo:150:5");
}

// ---------------------------------------------------------------------------
// Cached-vs-fresh parity (the tentpole's core guarantee)
// ---------------------------------------------------------------------------

TEST(DesignSnapshot, CachedRunIsBitIdenticalToFreshParse) {
  const fs::path dir = fresh_dir("parity");
  const std::string aux = write_demo_aux(dir, 220, 3);

  core::PlacerConfig cfg = core::PlacerConfig::xplace();
  cfg.grid_dim = 32;
  cfg.max_iters = 30;
  cfg.threads = 1;

  // Fresh parse straight into a mutable Database (the pre-store path).
  db::Database fresh = io::read_bookshelf_aux(aux);
  core::GlobalPlacer p1(fresh, cfg);
  const auto r1 = p1.run();

  // Snapshot path: parse once, materialize per-run state copy-on-write.
  const auto snap = io::read_bookshelf_snapshot(aux);
  ASSERT_NE(snap, nullptr);
  core::GlobalPlacer p2(snap, cfg);
  const auto r2 = p2.run();

  EXPECT_EQ(r1.hpwl, r2.hpwl);  // bitwise: no tolerance
  EXPECT_EQ(r1.overflow, r2.overflow);
  EXPECT_EQ(r1.iterations, r2.iterations);
  const db::Database& d1 = p1.db();
  const db::Database& d2 = p2.db();
  ASSERT_EQ(d1.num_cells_total(), d2.num_cells_total());
  for (std::size_t c = 0; c < d1.num_cells_total(); ++c) {
    ASSERT_EQ(d1.x(c), d2.x(c)) << "cell " << c;
    ASSERT_EQ(d1.y(c), d2.y(c)) << "cell " << c;
  }
  // The snapshot run shares the immutable core (copy-on-write, not a deep
  // copy): the placer's database points at the snapshot's DesignCore.
  EXPECT_EQ(p2.db().core().get(), snap->base.core().get());
  // The shared core never moved while the run mutated positions.
  EXPECT_EQ(snap->content_hash, io::hash_bookshelf_aux(aux));
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// DesignStore: parse-once, LRU, pins
// ---------------------------------------------------------------------------

TEST(DesignStore, ParsesOnceAndServesCacheHits) {
  DesignStore store(DesignStoreConfig{});
  std::string err;
  const auto s1 = store.get_demo(180, 9, &err);
  ASSERT_NE(s1, nullptr) << err;
  const auto s2 = store.get_demo(180, 9, &err);
  ASSERT_EQ(s1.get(), s2.get());  // the same shared snapshot, not a re-parse
  const auto st = store.stats();
  EXPECT_EQ(st.parses, 1u);
  EXPECT_EQ(st.cache_hits, 1u);
  EXPECT_EQ(st.resident, 1u);
  EXPECT_GT(st.resident_bytes, 0u);

  const auto s3 = store.get_hash(s1->content_hash, &err);
  EXPECT_EQ(s3.get(), s1.get());
  EXPECT_EQ(store.get_hash(0xdeadbeef, &err), nullptr);
  EXPECT_NE(err.find("unknown design hash"), std::string::npos);
}

TEST(DesignStore, ConcurrentGetsShareOneParse) {
  DesignStore store(DesignStoreConfig{});
  constexpr int kThreads = 8;
  std::vector<DesignStore::SnapshotPtr> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&store, &got, t] {
      std::string err;
      got[t] = store.get_demo(160, 4, &err);
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_NE(got[t], nullptr);
    EXPECT_EQ(got[t].get(), got[0].get());
  }
  EXPECT_EQ(store.stats().parses, 1u);
}

TEST(DesignStore, LruEvictsOldestUnpinnedAndKeepsSource) {
  DesignStoreConfig cfg;
  cfg.capacity = 2;
  DesignStore store(cfg);
  std::string err;
  const auto a = store.get_demo(100, 1, &err);
  const auto b = store.get_demo(100, 2, &err);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  // Touch `a` so `b` is the LRU victim when `c` arrives.
  store.get_hash(a->content_hash, &err);
  const auto c = store.get_demo(100, 3, &err);
  ASSERT_NE(c, nullptr);

  auto st = store.stats();
  EXPECT_EQ(st.resident, 2u);
  EXPECT_EQ(st.cache_evictions, 1u);
  // `b` lost residency but kept its source: the next reference re-parses
  // lazily and lands on the same content hash.
  EXPECT_TRUE(store.known(b->content_hash));
  const auto b2 = store.get_hash(b->content_hash, &err);
  ASSERT_NE(b2, nullptr) << err;
  EXPECT_EQ(b2->content_hash, b->content_hash);
  EXPECT_EQ(store.stats().parses, 4u);  // a, b, c, b-again
}

TEST(DesignStore, PinnedSnapshotsAreEvictionExempt) {
  DesignStoreConfig cfg;
  cfg.capacity = 1;
  DesignStore store(cfg);
  std::string err;
  const auto a = store.get_demo(100, 1, &err);
  ASSERT_NE(a, nullptr);
  {
    DesignStore::Pin pin(store, a->content_hash);
    // Loading a second design wants to evict `a` — the pin forbids it, so the
    // store runs over capacity rather than dropping a running job's design.
    const auto b = store.get_demo(100, 2, &err);
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(store.stats().resident, 2u);
    EXPECT_FALSE(store.evict(a->content_hash, &err));
    EXPECT_NE(err.find("pinned"), std::string::npos);
  }
  // Pin released: explicit evict now drops the entry entirely.
  ASSERT_TRUE(store.evict(a->content_hash, &err)) << err;
  EXPECT_FALSE(store.known(a->content_hash));
  EXPECT_FALSE(store.evict(a->content_hash, &err));
}

TEST(DesignStore, RejectsHashMismatchAfterFileChange) {
  const fs::path dir = fresh_dir("mismatch");
  const std::string aux = write_demo_aux(dir, 110, 6);
  DesignStoreConfig cfg;
  cfg.capacity = 1;
  DesignStore store(cfg);
  std::string err;
  const auto a = store.get_aux(aux, &err);
  ASSERT_NE(a, nullptr) << err;
  // Evict residency, then change the file: the remembered hash no longer
  // names the on-disk content, so the lazy re-parse must refuse.
  const auto b = store.get_demo(100, 1, &err);  // displaces `a` (capacity 1)
  ASSERT_NE(b, nullptr);
  {
    std::ofstream nodes((dir / "demo.nodes").string(), std::ios::app);
    nodes << "\n# changed\n";
  }
  EXPECT_EQ(store.get_hash(a->content_hash, &err), nullptr);
  EXPECT_NE(err.find("no longer matches"), std::string::npos);
  fs::remove_all(dir);
}

// ---------------------------------------------------------------------------
// Server admission: the ambiguous-spec bugfix (in-process path)
// ---------------------------------------------------------------------------

TEST(ServerValidation, RejectsAmbiguousAndMalformedSpecs) {
  ServerConfig cfg;
  cfg.max_concurrency = 1;
  PlacementServer srv(cfg);

  JobSpec both;
  both.aux = "a.aux";
  both.demo_cells = 100;
  auto out = srv.submit(both);
  EXPECT_FALSE(out.ok);
  EXPECT_NE(out.error.find("ambiguous design source"), std::string::npos);

  JobSpec none;
  out = srv.submit(none);
  EXPECT_FALSE(out.ok);
  EXPECT_NE(out.error.find("requires a design"), std::string::npos);

  JobSpec negative;
  negative.demo_cells = -5;
  out = srv.submit(negative);
  EXPECT_FALSE(out.ok);

  JobSpec huge;
  huge.demo_cells = kMaxDemoCells + 1;
  out = srv.submit(huge);
  EXPECT_FALSE(out.ok);
  EXPECT_NE(out.error.find("admission bound"), std::string::npos);

  JobSpec bad_density;
  bad_density.demo_cells = 100;
  bad_density.target_density = 1.5;
  out = srv.submit(bad_density);
  EXPECT_FALSE(out.ok);

  EXPECT_EQ(srv.stats().rejected, 5u);
  srv.shutdown(/*drain=*/false);
}

// ---------------------------------------------------------------------------
// Server: upload, batch sweep, dedup
// ---------------------------------------------------------------------------

JobSpec batch_config(std::uint64_t seed, int iters = 25) {
  JobSpec s;
  s.max_iters = iters;
  s.grid = 32;
  s.seed = seed;
  s.full_flow = false;
  s.dedup = true;
  return s;
}

TEST(ServerBatch, UploadIsIdempotentPerContent) {
  ServerConfig cfg;
  cfg.max_concurrency = 1;
  PlacementServer srv(cfg);
  JobSpec src;
  src.demo_cells = 140;
  src.demo_seed = 2;
  const auto up1 = srv.upload_design(src);
  ASSERT_TRUE(up1.ok) << up1.error;
  EXPECT_FALSE(up1.cached);
  EXPECT_EQ(up1.hash, io::demo_content_hash(140, 2));
  EXPECT_GT(up1.cells, 0u);
  const auto up2 = srv.upload_design(src);
  ASSERT_TRUE(up2.ok);
  EXPECT_TRUE(up2.cached);
  EXPECT_EQ(up2.hash, up1.hash);
  EXPECT_EQ(srv.stats().design_parses, 1u);

  const auto rows = srv.list_designs();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].hash, up1.hash);
  EXPECT_TRUE(rows[0].resident);

  std::string err;
  EXPECT_TRUE(srv.evict_design(up1.hash, &err)) << err;
  EXPECT_TRUE(srv.list_designs().empty());
  srv.shutdown(/*drain=*/false);
}

TEST(ServerBatch, SweepParsesOnceDedupsRepeatsAndMatchesSingleShot) {
  ServerConfig cfg;
  cfg.max_concurrency = 2;
  PlacementServer srv(cfg);

  JobSpec src;
  src.demo_cells = 200;
  src.demo_seed = 2;
  const auto up = srv.upload_design(src);
  ASSERT_TRUE(up.ok) << up.error;

  JobSpec base;
  base.design_hash = up.hash;
  // 3 distinct seeds + a repeat of the first + a density variant.
  std::vector<JobSpec> configs = {batch_config(1), batch_config(2),
                                  batch_config(3), batch_config(1)};
  configs.push_back(batch_config(1));
  configs.back().target_density = 0.8;

  const auto batch = srv.submit_batch(base, configs);
  ASSERT_TRUE(batch.ok) << batch.error;
  ASSERT_EQ(batch.jobs.size(), 5u);
  EXPECT_EQ(batch.design_hash, up.hash);
  // The repeated config shares the first config's job.
  EXPECT_FALSE(batch.jobs[0].deduped);
  EXPECT_TRUE(batch.jobs[3].deduped);
  EXPECT_EQ(batch.jobs[3].id, batch.jobs[0].id);
  EXPECT_FALSE(batch.jobs[4].deduped);  // density change = different config

  const auto status = srv.group_wait(batch.id, 300.0);
  ASSERT_TRUE(status.has_value());
  EXPECT_TRUE(status->all_terminal);
  EXPECT_EQ(status->done, 5u);
  EXPECT_GT(status->best_hpwl, 0.0);

  // Exactly ONE parse served the whole sweep.
  const auto st = srv.stats();
  EXPECT_EQ(st.design_parses, 1u);
  EXPECT_GE(st.design_cache_hits, 4u);
  EXPECT_EQ(st.dedup_hits, 1u);
  EXPECT_EQ(st.groups, 1u);

  // Dedup hit = the identical record, field for field.
  const auto r0 = srv.status(batch.jobs[0].id);
  const auto r3 = srv.status(batch.jobs[3].id);
  ASSERT_TRUE(r0.has_value());
  ASSERT_TRUE(r3.has_value());
  EXPECT_EQ(r0->id, r3->id);
  EXPECT_EQ(r0->hpwl, r3->hpwl);

  // Acceptance: a batched result is bit-identical to the same config run as
  // a fresh single-shot job on a fresh server (fresh parse, same threads).
  ServerConfig cfg2;
  cfg2.max_concurrency = 1;
  PlacementServer fresh(cfg2);
  JobSpec single = batch_config(2);
  single.demo_cells = 200;
  single.demo_seed = 2;
  single.dedup = false;
  const auto out = fresh.submit(single);
  ASSERT_TRUE(out.ok) << out.error;
  const auto fresh_rec = fresh.wait(out.id, 300.0);
  ASSERT_TRUE(fresh_rec.has_value());
  ASSERT_EQ(fresh_rec->state, JobState::kDone);
  const auto batched_rec = srv.wait(batch.jobs[1].id, 300.0);
  ASSERT_TRUE(batched_rec.has_value());
  ASSERT_EQ(batched_rec->state, JobState::kDone);
  EXPECT_EQ(fresh_rec->hpwl, batched_rec->hpwl);  // bitwise
  EXPECT_EQ(fresh_rec->overflow, batched_rec->overflow);
  EXPECT_EQ(fresh_rec->iterations, batched_rec->iterations);

  fresh.shutdown(/*drain=*/false);
  srv.shutdown(/*drain=*/false);
}

TEST(ServerBatch, WholeBatchRejectedWhenQueueCannotTakeIt) {
  ServerConfig cfg;
  cfg.max_concurrency = 1;
  cfg.queue_capacity = 2;
  PlacementServer srv(cfg);
  JobSpec base;
  base.demo_cells = 120;
  base.demo_seed = 3;
  std::vector<JobSpec> configs = {batch_config(1), batch_config(2),
                                  batch_config(3)};
  const auto batch = srv.submit_batch(base, configs);
  EXPECT_FALSE(batch.ok);
  EXPECT_NE(batch.error.find("batch rejected whole"), std::string::npos);
  // All-or-nothing: nothing was admitted.
  EXPECT_EQ(srv.stats().submitted, 0u);
  EXPECT_EQ(srv.stats().queued, 0u);
  srv.shutdown(/*drain=*/false);
}

TEST(ServerBatch, SettledGroupsRetireBeyondResultCapacity) {
  ServerConfig cfg;
  cfg.max_concurrency = 1;
  cfg.result_capacity = 2;
  PlacementServer srv(cfg);
  JobSpec base;
  base.demo_cells = 120;
  base.demo_seed = 3;
  const auto settle = [&](std::vector<JobSpec> configs) {
    const auto out = srv.submit_batch(base, configs);
    EXPECT_TRUE(out.ok) << out.error;
    const auto st = srv.group_wait(out.id, 120.0);
    EXPECT_TRUE(st.has_value() && st->all_terminal);
    return out.id;
  };
  // Three settled one-config sweeps: the third admission retires the oldest.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    EXPECT_EQ(settle({batch_config(seed, 10)}), seed);
  }
  EXPECT_FALSE(srv.group_status(1).has_value());
  EXPECT_TRUE(srv.group_status(3).has_value());
  EXPECT_LE(srv.stats().groups, 2u);
  std::size_t cancelled = 0;
  std::string err;
  EXPECT_FALSE(srv.group_cancel(1, &cancelled, &err));

  // A sweep served entirely from the cache admits no job, so it adds no
  // record to evict; its rows are held to the same bound.
  for (std::size_t i = 0; i <= cfg.result_capacity; ++i) {
    const std::uint64_t cached = settle({batch_config(3, 10)});
    const auto hit = srv.group_status(cached);
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(hit->info.members[0].deduped);
    EXPECT_LE(srv.stats().groups, cfg.result_capacity);
  }
  EXPECT_EQ(srv.stats().submitted, 3u);
  srv.shutdown(/*drain=*/false);
}

// ---------------------------------------------------------------------------
// Journal codecs + recovery
// ---------------------------------------------------------------------------

TEST(RecoveryCodecs, DesignRefAndBatchRoundTrip) {
  DesignRefInfo ref;
  ref.demo = true;
  ref.cells = 1234;
  ref.seed = 99;
  DesignRefInfo ref2;
  ASSERT_TRUE(decode_design_ref(encode_design_ref(ref), &ref2));
  EXPECT_EQ(ref2.demo, ref.demo);
  EXPECT_EQ(ref2.cells, ref.cells);
  EXPECT_EQ(ref2.seed, ref.seed);

  DesignRefInfo aux_ref;
  aux_ref.aux = "/designs/adaptec1.aux";
  ASSERT_TRUE(decode_design_ref(encode_design_ref(aux_ref), &ref2));
  EXPECT_FALSE(ref2.demo);
  EXPECT_EQ(ref2.aux, aux_ref.aux);

  GroupInfo sweep;
  sweep.design_hash = 0xabcdef0123456789ull;
  sweep.label = "sweep";
  sweep.members = {{4, false}, {7, false}, {7, true}, {9, false}};
  GroupInfo sweep2;
  ASSERT_TRUE(decode_group(encode_group(sweep), &sweep2));
  EXPECT_EQ(sweep2.design_hash, sweep.design_hash);
  EXPECT_EQ(sweep2.label, sweep.label);
  EXPECT_FALSE(sweep2.raced);
  ASSERT_EQ(sweep2.members.size(), sweep.members.size());
  for (std::size_t i = 0; i < sweep.members.size(); ++i) {
    EXPECT_EQ(sweep2.members[i].id, sweep.members[i].id);
    EXPECT_EQ(sweep2.members[i].deduped, sweep.members[i].deduped);
  }

  EXPECT_FALSE(decode_group("short", &sweep2));
  EXPECT_FALSE(decode_design_ref("", &ref2));
  // A payload with trailing bytes is rejected, never partially decoded.
  EXPECT_FALSE(decode_group(encode_group(sweep) + '\0', &sweep2));
  EXPECT_FALSE(decode_design_ref(encode_design_ref(ref) + '\0', &ref2));
}

TEST(Recovery, DesignsAndBatchesSurviveCrashRestart) {
  const fs::path state = fresh_dir("batchrecover");
  const std::uint64_t dhash = io::demo_content_hash(130, 5);

  // Fabricate the journal a daemon killed mid-sweep would leave: a design
  // ref; sweep 1 with a finished member, a member that finished at HPWL 0.0
  // (listed first) and a still-queued member; sweep 2 with two members tied
  // on HPWL (the higher id listed first); no clean-shutdown marker.
  {
    io::JournalWriter w;
    ASSERT_TRUE(w.open((state / "journal.xpjl").string(), /*truncate=*/true));
    const auto rec = [](JournalEvent type, std::uint64_t id,
                        std::string payload) {
      io::JournalRecord r;
      r.type = static_cast<std::uint32_t>(type);
      r.job_id = id;
      r.time_s = 0.0;
      r.payload = std::move(payload);
      return r;
    };
    DesignRefInfo ref;
    ref.demo = true;
    ref.cells = 130;
    ref.seed = 5;
    ASSERT_TRUE(w.append(rec(JournalEvent::kDesignRef, dhash,
                             encode_design_ref(ref))));
    const auto finished = [&](std::uint64_t id, std::uint64_t seed,
                              double hpwl) {
      JobSpec spec = batch_config(seed);
      spec.design_hash = dhash;
      ASSERT_TRUE(w.append(rec(JournalEvent::kSubmit, id,
                               encode_submit(spec, /*attempt=*/0))));
      ASSERT_TRUE(w.append(rec(JournalEvent::kStart, id, {})));
      FinishInfo fin;
      fin.state = JobState::kDone;
      fin.hpwl = hpwl;
      fin.iterations = 25;
      ASSERT_TRUE(w.append(rec(JournalEvent::kFinish, id, encode_finish(fin))));
    };
    finished(1, 1, 42.5);
    finished(2, 2, 0.0);
    JobSpec queued = batch_config(3);
    queued.design_hash = dhash;
    ASSERT_TRUE(w.append(rec(JournalEvent::kSubmit, 3,
                             encode_submit(queued, /*attempt=*/0))));
    GroupInfo sweep;
    sweep.design_hash = dhash;
    sweep.label = "sweep";
    sweep.members = {{2, false}, {1, false}, {3, false}};
    ASSERT_TRUE(w.append(rec(JournalEvent::kGroup, 1, encode_group(sweep))));
    finished(4, 4, 50.0);
    finished(5, 5, 50.0);
    GroupInfo tie;
    tie.design_hash = dhash;
    tie.label = "tie";
    tie.members = {{5, false}, {4, false}};
    ASSERT_TRUE(w.append(rec(JournalEvent::kGroup, 2, encode_group(tie))));
  }

  ServerConfig cfg;
  cfg.max_concurrency = 1;
  cfg.state_dir = state.string();
  PlacementServer srv(cfg);

  // The design survived as a re-registered source (not resident: recovery
  // never parses eagerly).
  const auto rows = srv.list_designs();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].hash, dhash);
  EXPECT_FALSE(rows[0].resident);

  // The sweep aggregate survived with its member list; the member that
  // finished at HPWL 0.0 is the best one even though a later member is not.
  const auto status = srv.group_status(1);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->info.design_hash, dhash);
  EXPECT_EQ(status->info.label, "sweep");
  ASSERT_EQ(status->info.members.size(), 3u);
  EXPECT_EQ(status->info.members[0].id, 2u);
  EXPECT_EQ(status->info.members[2].id, 3u);
  EXPECT_EQ(status->done, 2u);
  EXPECT_EQ(status->queued + status->running, 1u);
  EXPECT_EQ(status->best_job, 2u);
  EXPECT_EQ(status->best_hpwl, 0.0);
  const auto settled = srv.group_wait(1, 120.0);
  ASSERT_TRUE(settled.has_value());
  EXPECT_TRUE(settled->all_terminal);
  EXPECT_EQ(settled->done, 3u);
  EXPECT_EQ(settled->best_job, 2u);

  // Equal HPWL: the lower job id wins, whatever the config order.
  const auto tie = srv.group_status(2);
  ASSERT_TRUE(tie.has_value());
  EXPECT_TRUE(tie->all_terminal);
  EXPECT_EQ(tie->best_job, 4u);
  EXPECT_EQ(tie->best_hpwl, 50.0);

  // The restored result keeps serving dedup: resubmitting the same config
  // against the same design returns job 1's record without running anything.
  JobSpec again = batch_config(1);
  again.design_hash = dhash;
  const auto out = srv.submit(again);
  ASSERT_TRUE(out.ok) << out.error;
  EXPECT_TRUE(out.deduped);
  EXPECT_EQ(out.id, 1u);
  const auto rec = srv.status(1);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->hpwl, 42.5);

  // Group ids continue past the recovered ones.
  JobSpec base;
  base.design_hash = dhash;
  const auto next = srv.submit_batch(base, {batch_config(9)});
  ASSERT_TRUE(next.ok) << next.error;
  EXPECT_EQ(next.id, 3u);

  srv.shutdown(/*drain=*/true);
  fs::remove_all(state);
}

TEST(Recovery, UploadedDesignSurvivesCleanShutdown) {
  const fs::path state = fresh_dir("cleanupload");
  const std::uint64_t expect_hash = io::demo_content_hash(125, 8);
  {
    ServerConfig cfg;
    cfg.max_concurrency = 1;
    cfg.state_dir = state.string();
    PlacementServer srv(cfg);
    JobSpec src;
    src.demo_cells = 125;
    src.demo_seed = 8;
    const auto up = srv.upload_design(src);
    ASSERT_TRUE(up.ok) << up.error;
    ASSERT_EQ(up.hash, expect_hash);
    srv.shutdown(/*drain=*/true);
  }
  ServerConfig cfg;
  cfg.max_concurrency = 1;
  cfg.state_dir = state.string();
  PlacementServer srv(cfg);
  const auto rows = srv.list_designs();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].hash, expect_hash);
  // ... and it is usable: a job against the recovered hash re-parses lazily.
  JobSpec job = batch_config(1, /*iters=*/10);
  job.design_hash = expect_hash;
  const auto out = srv.submit(job);
  ASSERT_TRUE(out.ok) << out.error;
  const auto rec = srv.wait(out.id, 120.0);
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->state, JobState::kDone);
  EXPECT_EQ(srv.stats().design_parses, 1u);
  srv.shutdown(/*drain=*/true);
  fs::remove_all(state);
}

// ---------------------------------------------------------------------------
// Concurrent COW sharing under the server (TSan target)
// ---------------------------------------------------------------------------

TEST(ServerBatch, ConcurrentJobsShareOneSnapshot) {
  ServerConfig cfg;
  cfg.max_concurrency = 4;
  PlacementServer srv(cfg);

  JobSpec src;
  src.demo_cells = 150;
  src.demo_seed = 6;
  const auto up = srv.upload_design(src);
  ASSERT_TRUE(up.ok) << up.error;

  JobSpec base;
  base.design_hash = up.hash;
  // Distinct seeds so all four genuinely run (no dedup sharing) — four
  // placements mutating private COW state over one shared immutable core.
  std::vector<JobSpec> configs = {batch_config(10, 15), batch_config(11, 15),
                                  batch_config(12, 15), batch_config(13, 15)};
  const auto batch = srv.submit_batch(base, configs);
  ASSERT_TRUE(batch.ok) << batch.error;
  const auto status = srv.group_wait(batch.id, 300.0);
  ASSERT_TRUE(status.has_value());
  EXPECT_TRUE(status->all_terminal);
  EXPECT_EQ(status->done, 4u);
  EXPECT_EQ(srv.stats().design_parses, 1u);

  // Same seed ⇒ same result, regardless of which worker ran it.
  JobSpec repeat = batch_config(10, 15);
  repeat.design_hash = up.hash;
  repeat.dedup = false;
  const auto out = srv.submit(repeat);
  ASSERT_TRUE(out.ok);
  const auto rec = srv.wait(out.id, 120.0);
  const auto first = srv.status(batch.jobs[0].id);
  ASSERT_TRUE(rec.has_value());
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(rec->hpwl, first->hpwl);
  srv.shutdown(/*drain=*/false);
}

}  // namespace
}  // namespace xplace::server
