// Unit tests for the hot-path profiler (src/profile): span-tree
// accounting, ring overflow, the campaign rollup, and the trace export.
#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "profile/profiler.hpp"
#include "profile/report.hpp"
#include "profile/trace_export.hpp"

namespace easis::profile {
namespace {

// --- name interning ----------------------------------------------------------

TEST(ProfileNames, InternIsIdempotent) {
  const NameId a = intern_name("test.alpha");
  const NameId b = intern_name("test.beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(intern_name("test.alpha"), a);
  EXPECT_EQ(name_of(a), "test.alpha");
  EXPECT_EQ(name_of(b), "test.beta");
}

TEST(ProfileNames, UnknownIdResolvesToPlaceholder) {
  EXPECT_EQ(name_of(NameId(0xFFFFFFFF)), "<unknown>");
}

// --- span tree ---------------------------------------------------------------

TEST(Profiler, NestedSpansBuildTreeWithHitCounts) {
  Profiler profiler;
  profiler.begin_run();
  const NameId outer = intern_name("t.outer");
  const NameId inner = intern_name("t.inner");
  for (int i = 0; i < 3; ++i) {
    profiler.push_span(outer);
    profiler.push_span(inner);
    profiler.pop_span();
    profiler.push_span(inner);
    profiler.pop_span();
    profiler.pop_span();
  }
  EXPECT_EQ(profiler.open_spans(), 0u);
  const RunProfile profile = profiler.harvest_run(0);
  ASSERT_EQ(profile.nodes.size(), 2u);
  EXPECT_TRUE(profile.enabled);
  EXPECT_EQ(profile.nodes[0].name, "t.outer");
  EXPECT_EQ(profile.nodes[0].parent, -1);
  EXPECT_EQ(profile.nodes[0].hits, 3u);
  EXPECT_EQ(profile.nodes[1].name, "t.inner");
  EXPECT_EQ(profile.nodes[1].parent, 0);
  EXPECT_EQ(profile.nodes[1].hits, 6u);
  EXPECT_EQ(profile.depth(0), 0u);
  EXPECT_EQ(profile.depth(1), 1u);
  EXPECT_EQ(profile.path(1), "t.outer/t.inner");
}

TEST(Profiler, SelfTimeExcludesChildrenTotalIncludesThem) {
  Profiler profiler;
  profiler.begin_run();
  const NameId outer = intern_name("t.self_outer");
  const NameId inner = intern_name("t.self_inner");
  profiler.push_span(outer);
  profiler.push_span(inner);
  // Burn some real time inside the child so the split is observable.
  const auto until = std::chrono::steady_clock::now() +
                     std::chrono::milliseconds(2);
  while (std::chrono::steady_clock::now() < until) {
  }
  profiler.pop_span();
  profiler.pop_span();
  const RunProfile profile = profiler.harvest_run(0);
  ASSERT_EQ(profile.nodes.size(), 2u);
  const auto& o = profile.nodes[0];
  const auto& c = profile.nodes[1];
  EXPECT_GE(c.total_ns, 2'000'000);
  EXPECT_EQ(c.total_ns, c.self_ns);  // leaf: no children
  // Parent total covers the child; parent self is the (tiny) remainder.
  EXPECT_GE(o.total_ns, c.total_ns);
  EXPECT_EQ(o.self_ns, o.total_ns - c.total_ns);
}

TEST(Profiler, SameNameUnderDifferentParentsIsDistinctNode) {
  Profiler profiler;
  profiler.begin_run();
  const NameId a = intern_name("t.parent_a");
  const NameId b = intern_name("t.parent_b");
  const NameId shared = intern_name("t.shared");
  profiler.push_span(a);
  profiler.push_span(shared);
  profiler.pop_span();
  profiler.pop_span();
  profiler.push_span(b);
  profiler.push_span(shared);
  profiler.pop_span();
  profiler.pop_span();
  const RunProfile profile = profiler.harvest_run(0);
  ASSERT_EQ(profile.nodes.size(), 4u);
  EXPECT_EQ(profile.path(1), "t.parent_a/t.shared");
  EXPECT_EQ(profile.path(3), "t.parent_b/t.shared");
}

TEST(Profiler, HarvestClearsStateForNextRun) {
  Profiler profiler;
  profiler.begin_run();
  profiler.push_span(intern_name("t.once"));
  profiler.pop_span();
  EXPECT_EQ(profiler.harvest_run(0).nodes.size(), 1u);
  const RunProfile second = profiler.harvest_run(1);
  EXPECT_TRUE(second.nodes.empty());
  EXPECT_TRUE(second.records.empty());
  EXPECT_EQ(second.worker, 1u);
}

// --- counters ----------------------------------------------------------------

TEST(Profiler, CountersAccumulateAndSortByName) {
  Profiler profiler;
  profiler.begin_run();
  const NameId zeta = intern_name("t.zeta");
  const NameId alpha = intern_name("t.alpha_counter");
  profiler.count(zeta, 2);
  profiler.count(alpha, 1);
  profiler.count(zeta, 3);
  const RunProfile profile = profiler.harvest_run(0);
  ASSERT_EQ(profile.counters.size(), 2u);
  EXPECT_EQ(profile.counters[0].name, "t.alpha_counter");
  EXPECT_EQ(profile.counters[0].value, 1u);
  EXPECT_EQ(profile.counters[1].name, "t.zeta");
  EXPECT_EQ(profile.counters[1].value, 5u);
}

// --- ring overflow -----------------------------------------------------------

TEST(Profiler, RingOverflowDropsOldestAndCounts) {
  Profiler::Config config;
  config.ring_capacity = 4;
  Profiler profiler(config);
  profiler.begin_run();
  const NameId span = intern_name("t.ring");
  for (int i = 0; i < 10; ++i) {
    profiler.push_span(span);
    profiler.pop_span();
  }
  EXPECT_EQ(profiler.dropped_records(), 6u);
  const RunProfile profile = profiler.harvest_run(0);
  EXPECT_EQ(profile.records.size(), 4u);
  EXPECT_EQ(profile.dropped_records, 6u);
  // Oldest-first after the wrap: start times must be monotonic.
  for (std::size_t i = 1; i < profile.records.size(); ++i) {
    EXPECT_LE(profile.records[i - 1].start_ns, profile.records[i].start_ns);
  }
  // Tree accounting is unaffected by ring loss.
  ASSERT_EQ(profile.nodes.size(), 1u);
  EXPECT_EQ(profile.nodes[0].hits, 10u);
}

TEST(Profiler, WithoutRingTimingIsSampledButShapeIsExact) {
  Profiler::Config config;
  config.ring_capacity = 0;
  Profiler profiler(config);
  profiler.begin_run();
  const NameId outer = intern_name("t.sampled_outer");
  const NameId inner = intern_name("t.sampled_inner");
  profiler.push_span(outer);
  for (int i = 0; i < 5000; ++i) {
    profiler.push_span(inner);
    profiler.pop_span();
  }
  profiler.pop_span();
  const RunProfile profile = profiler.harvest_run(0);
  ASSERT_EQ(profile.nodes.size(), 2u);
  EXPECT_EQ(profile.nodes[0].hits, 1u);
  EXPECT_EQ(profile.nodes[1].hits, 5000u);
  EXPECT_GT(profile.nodes[1].total_ns, 0);
  EXPECT_EQ(profile.nodes[1].self_ns, profile.nodes[1].total_ns);
  EXPECT_GE(profile.nodes[0].self_ns, 0);
  EXPECT_TRUE(profile.records.empty());
  EXPECT_EQ(profile.dropped_records, 0u);
}

// --- scopes and macros -------------------------------------------------------
// These assert that the macros *do* record, so they only exist when the
// instrumentation is compiled in; a -DEASIS_PROFILING=OFF tree runs the
// rest of this file (the direct API ignores the kill switch) and
// profile_disabled_test covers the compiled-out expansion.
#if EASIS_PROFILING_ENABLED

TEST(ProfileScope, MacrosRecordOnlyWhileScopeInstalled) {
  EASIS_PROFILE_SPAN("t.no_scope");          // no profiler: must be a no-op
  EASIS_PROFILE_COUNT("t.no_scope_count", 1);
  Profiler profiler;
  profiler.begin_run();
  {
    ProfileScope scope(profiler);
    EASIS_PROFILE_SPAN("t.scoped");
    EASIS_PROFILE_COUNT("t.scoped_count", 7);
  }
  EASIS_PROFILE_SPAN("t.after_scope");  // scope gone: no-op again
  const RunProfile profile = profiler.harvest_run(0);
  ASSERT_EQ(profile.nodes.size(), 1u);
  EXPECT_EQ(profile.nodes[0].name, "t.scoped");
  ASSERT_EQ(profile.counters.size(), 1u);
  EXPECT_EQ(profile.counters[0].name, "t.scoped_count");
  EXPECT_EQ(profile.counters[0].value, 7u);
}

TEST(ProfileScope, ScopesNestInnermostWins) {
  Profiler a;
  Profiler b;
  a.begin_run();
  b.begin_run();
  {
    ProfileScope outer(a);
    {
      ProfileScope inner(b);
      EASIS_PROFILE_SPAN("t.nested_target");
    }
    EXPECT_EQ(current(), &a);
  }
  EXPECT_EQ(current(), nullptr);
  EXPECT_TRUE(a.harvest_run(0).nodes.empty());
  EXPECT_EQ(b.harvest_run(0).nodes.size(), 1u);
}

TEST(ProfileScope, SpanBeginEndMacroPair) {
  Profiler profiler;
  profiler.begin_run();
  ProfileScope scope(profiler);
  EASIS_PROFILE_SPAN_BEGIN(phase, "t.begin_end");
  EXPECT_EQ(profiler.open_spans(), 1u);
  EASIS_PROFILE_SPAN_END(phase);
  EXPECT_EQ(profiler.open_spans(), 0u);
}

TEST(ProfileScope, SpanSurvivesExceptionUnwinding) {
  Profiler profiler;
  profiler.begin_run();
  ProfileScope scope(profiler);
  try {
    EASIS_PROFILE_SPAN("t.throwing");
    throw std::runtime_error("boom");
  } catch (const std::runtime_error&) {
  }
  EXPECT_EQ(profiler.open_spans(), 0u);
  const RunProfile profile = profiler.harvest_run(0);
  ASSERT_EQ(profile.nodes.size(), 1u);
  EXPECT_EQ(profile.nodes[0].hits, 1u);
}

#endif  // EASIS_PROFILING_ENABLED

// --- campaign rollup ---------------------------------------------------------

RunProfile make_profile(unsigned worker, std::uint64_t hits,
                        std::int64_t ns) {
  Profiler profiler;
  profiler.begin_run();
  const NameId outer = intern_name("t.roll_outer");
  const NameId inner = intern_name("t.roll_inner");
  for (std::uint64_t i = 0; i < hits; ++i) {
    profiler.push_span(outer);
    profiler.push_span(inner);
    profiler.pop_span();
    profiler.pop_span();
  }
  profiler.count(intern_name("t.roll_count"), hits);
  RunProfile profile = profiler.harvest_run(worker);
  // Overwrite the measured times with synthetic ones so statistics are
  // assertable.
  for (auto& node : profile.nodes) {
    node.total_ns = ns;
    node.self_ns = ns / 2;
  }
  return profile;
}

TEST(CampaignRollup, MergesRunsFromDifferentWorkersByPath) {
  CampaignRollup rollup;
  rollup.add_run(make_profile(0, 2, 1'000'000));
  rollup.add_run(make_profile(3, 4, 3'000'000));
  rollup.add_run(RunProfile{});  // disabled profile contributes nothing
  EXPECT_EQ(rollup.runs(), 2u);

  std::ostringstream csv;
  rollup.write_csv(csv);
  const std::string text = csv.str();
  EXPECT_NE(text.find("span,t.roll_outer,0,6,2"), std::string::npos);
  EXPECT_NE(text.find("span,t.roll_outer/t.roll_inner,1,6,2"),
            std::string::npos);
  EXPECT_NE(text.find("counter,t.roll_count"), std::string::npos);
  // min over {1ms, 3ms} per-run totals = 1000 us; mean = 2000 us.
  EXPECT_NE(text.find("1000,2000"), std::string::npos);
}

TEST(CampaignRollup, ShapeCsvHasNoWallClockColumns) {
  CampaignRollup rollup;
  rollup.add_run(make_profile(0, 1, 5'000'000));
  std::ostringstream shape;
  rollup.write_shape_csv(shape);
  const std::string text = shape.str();
  EXPECT_NE(text.find("kind,span,depth,hits,runs\n"), std::string::npos);
  EXPECT_EQ(text.find("us"), std::string::npos);
  EXPECT_NE(text.find("span,t.roll_outer,0,1,1\n"), std::string::npos);
}

TEST(CampaignRollup, ShapeIsIndependentOfWallClockAndWorker) {
  CampaignRollup a;
  a.add_run(make_profile(0, 3, 1'000));
  a.add_run(make_profile(1, 5, 2'000));
  CampaignRollup b;
  b.add_run(make_profile(7, 3, 999'999));
  b.add_run(make_profile(2, 5, 123));
  std::ostringstream sa;
  std::ostringstream sb;
  a.write_shape_csv(sa);
  b.write_shape_csv(sb);
  EXPECT_EQ(sa.str(), sb.str());
}

// --- trace export ------------------------------------------------------------

TEST(TraceExport, JsonEscapeHandlesSpecials) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
  EXPECT_EQ(json_escape(std::string("a\x01z")), "a\\u0001z");
}

TEST(TraceExport, WritesCompleteEventsAndWorkerTracks) {
  Profiler profiler;
  profiler.begin_run();
  profiler.push_span(intern_name("t.trace_span"));
  profiler.pop_span();
  const RunProfile profile = profiler.harvest_run(2);

  std::ostringstream out;
  TraceWriter trace(out);
  trace.begin();
  trace.add_run(profile, "label \"x\"", 0);
  trace.end();
  const std::string text = out.str();
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"name\":\"t.trace_span\""), std::string::npos);
  EXPECT_NE(text.find("\"tid\":2"), std::string::npos);
  EXPECT_NE(text.find("label \\\"x\\\""), std::string::npos);  // escaped
  EXPECT_NE(text.find("thread_name"), std::string::npos);
  EXPECT_GT(trace.events_written(), 0u);
  // Must be parseable enough to end the JSON document.
  EXPECT_EQ(text.back(), '\n');
  EXPECT_NE(text.find("]}"), std::string::npos);
}

TEST(TraceExport, EmptyTraceIsStillValidDocument) {
  std::ostringstream out;
  TraceWriter trace(out);
  trace.begin();
  trace.end();
  EXPECT_NE(out.str().find("\"traceEvents\":["), std::string::npos);
  EXPECT_EQ(trace.events_written(), 0u);
}

}  // namespace
}  // namespace easis::profile
