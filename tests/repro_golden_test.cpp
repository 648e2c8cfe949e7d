// Golden end-to-end fingerprints: the full churn/shard stacks must produce
// byte-identical run digests across refactors of the internal memory
// layout (address interning, SoA views, summary pooling). The pinned
// values were captured from the pre-interning implementation, so any drift
// here means observable behavior changed — RNG draw order, delivery
// counts, gossip order — not just representation.
//
// Configs mirror `pmcast_sim --scenario demo [--wire|--adaptive]` and
// `pmcast_sim --shards ...` defaults (a=4, d=2, R=2, F=2, eps=0.05,
// fill=0.75, seed=42, horizon 3500 ms).
#include <gtest/gtest.h>

#include "harness/scenario.hpp"
#include "harness/shard.hpp"

namespace pmc {
namespace {

ChurnConfig demo_config() {
  ChurnConfig config;
  config.a = 4;
  config.d = 2;
  config.r = 2;
  config.pd = 0.5;
  config.fanout = 2;
  config.loss = 0.05;
  config.initial_fill = 0.75;
  config.seed = 42;
  return config;
}

ChurnSummary run_demo(ChurnConfig config) {
  ChurnSim sim(config);
  sim.play(ScenarioScript::demo());
  sim.run_until(sim_ms(3500));
  return sim.summary();
}

TEST(ReproGolden, ScenarioDemo) {
  const ChurnSummary s = run_demo(demo_config());
  EXPECT_EQ(s.fingerprint, 0x0709bfc910400cbcULL) << s.to_string();
  EXPECT_EQ(s.counters.delivered, 81u);
  EXPECT_EQ(s.network.sent, 3560u);
}

TEST(ReproGolden, ScenarioDemoWireTranscodeIsTransparent) {
  // Running every message through the frozen wire codec must not change a
  // single draw or delivery: same fingerprint as the in-memory run.
  ChurnConfig config = demo_config();
  config.wire_transcode = true;
  const ChurnSummary s = run_demo(config);
  EXPECT_EQ(s.fingerprint, 0x0709bfc910400cbcULL) << s.to_string();
}

TEST(ReproGolden, WideGroupWireTranscodeIsTransparent) {
  // The demo group is 32 addresses wide; here a=8, d=3 (384 live
  // processes) puts three-level views, multi-delegate rows and long
  // piggybacked batches through the codec, with churn on every row kind
  // (joins, crashes, a leave) and publishes throughout. Rows that come
  // off the wire are translated into the receiver's tables; the run must
  // not tell the difference.
  ChurnConfig config = demo_config();
  config.a = 8;
  config.d = 3;
  ScenarioScript script;
  script.add(sim_ms(100), PublishBurst{4, sim_ms(20)});
  script.add(sim_ms(150), Join{4});
  script.add(sim_ms(300), CrashNodes{6});
  script.add(sim_ms(400), PublishBurst{4, sim_ms(20)});
  script.add(sim_ms(500), Leave{2});
  script.add(sim_ms(600), PublishBurst{4, sim_ms(20)});
  const auto run = [&](bool wire) {
    config.wire_transcode = wire;
    ChurnSim sim(config);
    sim.play(script);
    sim.run_until(sim_ms(900));
    return sim.summary();
  };
  const ChurnSummary off = run(false);
  const ChurnSummary on = run(true);
  // Pinned from the implementation that still shipped materialized rows.
  EXPECT_EQ(off.fingerprint, 0x5007eaeb945ac1d5ULL) << off.to_string();
  EXPECT_EQ(on.fingerprint, off.fingerprint) << on.to_string();
  EXPECT_EQ(on.to_string(), off.to_string());
  EXPECT_GT(off.counters.delivered, 0u);
  EXPECT_GT(off.joins_served, 0u);
  EXPECT_GT(off.membership_tombstones, 0u);
}

TEST(ReproGolden, ScenarioDemoAdaptive) {
  ChurnConfig config = demo_config();
  config.adaptive = true;
  config.adaptive_alpha = 0.3;
  const ChurnSummary s = run_demo(config);
  EXPECT_EQ(s.fingerprint, 0xc21c3172b50fce84ULL) << s.to_string();
  EXPECT_EQ(s.env_windows, 431u);
}

ShardedConfig sharded_config(std::size_t shards) {
  ShardedConfig config;
  config.shards = shards;
  config.shard = demo_config();
  return config;
}

/// The worker-pool engine must not just replay itself — it must replay the
/// single-runtime engine the pins were captured under, at every lane
/// count. Sharded goldens therefore run at T = 1, 2, and 8 and assert the
/// same pinned values each time.
constexpr std::size_t kThreadCounts[] = {1, 2, 8};

TEST(ReproGolden, Shards16AnyThreadCount) {
  for (const auto threads : kThreadCounts) {
    ShardedConfig config = sharded_config(16);
    config.threads = threads;
    ShardedSim sim(config);
    sim.run_until(sim_ms(3500));
    const ShardedSummary s = sim.summary();
    EXPECT_EQ(s.fingerprint, 0x0f8b319af33eb380ULL)
        << "threads=" << threads << "\n" << s.to_string();
    EXPECT_EQ(s.aggregate.fingerprint, 0x50a6bd223289b406ULL);
    ASSERT_EQ(s.shards.size(), 16u);
    EXPECT_EQ(s.shards[0].fingerprint, 0x688f9f4ddc880d45ULL);
  }
}

TEST(ReproGolden, WanFlapScenarioAnyThreadCount) {
  // Adversarial pin: a WAN latency profile plus a flapping partition on
  // shard 0. The injector draws ride labeled sub-streams of the
  // per-message seed, so the fingerprint must not move with the thread
  // count — and any change to how those streams are derived moves it.
  for (const auto threads : kThreadCounts) {
    ShardedConfig config = sharded_config(4);
    config.threads = threads;
    ShardedSim sim(config);
    sim.play(0, ScenarioScript::parse(
                    "at 100ms latency lognormal 2ms 0.8\n"
                    "at 200ms flap 0 period 200ms duty 0.3 until 1500ms\n"
                    "at 2s publish 6 every 50ms\n"));
    sim.run_until(sim_ms(3500));
    const ShardedSummary s = sim.summary();
    EXPECT_EQ(s.fingerprint, 0x0f34ef7a70b65007ULL)
        << "threads=" << threads << "\n" << s.to_string();
    EXPECT_EQ(s.aggregate.fingerprint, 0xba8c26674d1c9b2cULL);
    ASSERT_EQ(s.shards.size(), 4u);
    EXPECT_EQ(s.shards[0].fingerprint, 0x4d0f251324264df4ULL);
  }
}

TEST(ReproGolden, Shards4Cross2AnyThreadCount) {
  for (const auto threads : kThreadCounts) {
    ShardedConfig config = sharded_config(4);
    config.cross.publishers = 2;
    config.cross.span = 2;
    config.cross.events = 8;
    config.cross.spacing = sim_ms(100);
    config.threads = threads;
    ShardedSim sim(config);
    sim.run_until(sim_ms(3500));
    const ShardedSummary s = sim.summary();
    EXPECT_EQ(s.fingerprint, 0x0156089b3f3e12f6ULL)
        << "threads=" << threads << "\n" << s.to_string();
    EXPECT_EQ(s.aggregate.fingerprint, 0xadc2bec9eed60c1dULL);
    ASSERT_EQ(s.shards.size(), 4u);
    EXPECT_EQ(s.shards[0].fingerprint, 0x493af6e591c12ab5ULL);
    EXPECT_EQ(s.shards[1].fingerprint, 0x95dab52657582cdaULL);
  }
}

TEST(ReproGolden, Shards8PartitionedShardAnyThreadCount) {
  // A partition scoped to one shard (install + heal both inside the run)
  // must unfold identically under every lane count; the fingerprint was
  // captured at threads=1 on the engine that passes the pins above.
  ShardedSummary reference;
  for (const auto threads : kThreadCounts) {
    ShardedConfig config = sharded_config(8);
    config.threads = threads;
    ShardedSim sim(config);
    ScenarioScript script;
    script.add(sim_ms(400), Partition{{0, 1}, sim_ms(1600)});
    script.add(sim_ms(800), CrashNodes{2});
    sim.play(3, script);
    sim.run_until(sim_ms(3500));
    const ShardedSummary s = sim.summary();
    EXPECT_EQ(s.fingerprint, 0x9bb4edacdf0f0d73ULL)
        << "threads=" << threads << "\n" << s.to_string();
    if (threads == 1) {
      reference = s;
    } else {
      EXPECT_EQ(s, reference) << "threads=" << threads;
    }
  }
}

TEST(ReproGolden, Shards8WireTranscodeAnyThreadCount) {
  // Each shard's transcoder decodes frames into that shard's own Interns,
  // from whichever lane runs the shard. An 8-shard demo with wire on must
  // equal the same run with wire off, aggregate and per shard, at every
  // lane count; the fingerprint was captured on the engine that decoded
  // rows context-free.
  const auto run = [](std::size_t threads, bool wire) {
    ShardedConfig config = sharded_config(8);
    config.threads = threads;
    config.shard.wire_transcode = wire;
    ShardedSim sim(config);
    sim.play_all(ScenarioScript::demo());
    sim.run_until(sim_ms(3500));
    return sim.summary();
  };
  const ShardedSummary off = run(1, false);
  EXPECT_EQ(off.fingerprint, 0x93afcde9726056e2ULL) << off.to_string();
  EXPECT_EQ(off.aggregate.fingerprint, 0xc86a0740cd694ec1ULL);
  ASSERT_EQ(off.shards.size(), 8u);
  EXPECT_EQ(off.shards[0].fingerprint, 0x594cdc43e6f4f0cbULL);
  EXPECT_GT(off.aggregate.counters.delivered, 0u);
  for (const auto threads : kThreadCounts) {
    const ShardedSummary on = run(threads, true);
    // Compares the aggregate and every per-shard summary.
    EXPECT_EQ(on, off) << "threads=" << threads << "\n" << on.to_string();
  }
}

}  // namespace
}  // namespace pmc
