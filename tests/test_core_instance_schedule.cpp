#include <gtest/gtest.h>

#include <sstream>
#include <type_traits>

#include "core/instance.h"
#include "core/schedule.h"
#include "helpers.h"
#include "support/assert.h"

namespace fjs {
namespace {

using testing::make_instance;
using testing::units;

// An lvalue Instance converts to its view; a temporary does not, since
// the view would dangle once the full expression ends.
static_assert(std::is_convertible_v<const Instance&, InstanceView>);
static_assert(std::is_convertible_v<Instance&, InstanceView>);
static_assert(!std::is_convertible_v<Instance&&, InstanceView>);
static_assert(!std::is_convertible_v<Instance, InstanceView>);

TEST(Job, LaxityAndWindows) {
  const Job j{.id = 0, .arrival = units(1.0), .deadline = units(4.0),
              .length = units(2.0)};
  EXPECT_EQ(j.laxity(), units(3.0));
  EXPECT_EQ(j.latest_completion(), units(6.0));
  EXPECT_EQ(j.active_interval(units(2.0)),
            Interval(units(2.0), units(4.0)));
  EXPECT_TRUE(j.valid());
}

TEST(Job, InvalidJobsDetected) {
  Job j{.id = 0, .arrival = units(4.0), .deadline = units(1.0),
        .length = units(2.0)};
  EXPECT_FALSE(j.valid());
  j.deadline = units(5.0);
  j.length = Time::zero();
  EXPECT_FALSE(j.valid());
}

TEST(Instance, AssignsIdsAndValidates) {
  const Instance inst = make_instance({{0, 1, 2}, {3, 4, 5}});
  EXPECT_EQ(inst.size(), 2u);
  EXPECT_EQ(inst.job(0).id, 0u);
  EXPECT_EQ(inst.job(1).id, 1u);
  EXPECT_THROW(inst.job(2), AssertionError);
}

TEST(Instance, RejectsInvalidJob) {
  InstanceBuilder builder;
  builder.add(2.0, 1.0, 1.0);  // deadline before arrival
  EXPECT_THROW(builder.build(), AssertionError);
}

TEST(Instance, MuAndLengths) {
  const Instance inst = make_instance({{0, 0, 1}, {0, 0, 4}, {0, 0, 2}});
  EXPECT_DOUBLE_EQ(inst.mu(), 4.0);
  EXPECT_EQ(inst.min_length(), units(1.0));
  EXPECT_EQ(inst.max_length(), units(4.0));
  EXPECT_EQ(inst.total_work(), units(7.0));
}

TEST(Instance, HorizonQueries) {
  const Instance inst = make_instance({{1, 2, 3}, {0, 10, 1}});
  EXPECT_EQ(inst.earliest_arrival(), units(0.0));
  EXPECT_EQ(inst.latest_completion(), units(11.0));
}

TEST(Instance, SortedIdViews) {
  const Instance inst = make_instance({{5, 9, 1}, {0, 20, 1}, {2, 3, 1}});
  EXPECT_EQ(inst.ids_by_arrival(), (std::vector<JobId>{1, 2, 0}));
  EXPECT_EQ(inst.ids_by_deadline(), (std::vector<JobId>{2, 0, 1}));
}

TEST(Instance, SortTiesBrokenById) {
  const Instance inst = make_instance({{1, 1, 1}, {1, 1, 2}});
  EXPECT_EQ(inst.ids_by_arrival(), (std::vector<JobId>{0, 1}));
  EXPECT_EQ(inst.ids_by_deadline(), (std::vector<JobId>{0, 1}));
}

TEST(Instance, IsMultipleOf) {
  const Instance inst = make_instance({{0, 2, 1}, {1, 3, 2}});
  EXPECT_TRUE(inst.is_multiple_of(Time(Time::kTicksPerUnit)));
  const Instance frac = make_instance({{0, 2, 1.5}});
  EXPECT_FALSE(frac.is_multiple_of(Time(Time::kTicksPerUnit)));
  EXPECT_TRUE(frac.is_multiple_of(Time(Time::kTicksPerUnit / 2)));
}

TEST(Instance, SerializationRoundTrip) {
  const Instance inst = make_instance({{0, 2.5, 1.25}, {3, 4, 0.5}});
  std::stringstream ss;
  inst.write(ss);
  const Instance parsed = Instance::parse(ss);
  ASSERT_EQ(parsed.size(), inst.size());
  for (JobId id = 0; id < inst.size(); ++id) {
    EXPECT_EQ(parsed.job(id).arrival, inst.job(id).arrival);
    EXPECT_EQ(parsed.job(id).deadline, inst.job(id).deadline);
    EXPECT_EQ(parsed.job(id).length, inst.job(id).length);
  }
}

TEST(Schedule, SpanOfDisjointAndOverlapping) {
  const Instance inst = make_instance({{0, 10, 2}, {0, 10, 2}});
  Schedule overlap(2);
  overlap.set_start(0, units(0.0));
  overlap.set_start(1, units(1.0));
  EXPECT_EQ(overlap.span(inst), units(3.0));

  Schedule together = Schedule::from_starts({units(4.0), units(4.0)});
  EXPECT_EQ(together.span(inst), units(2.0));
}

TEST(Schedule, ValidateCatchesWindowViolations) {
  const Instance inst = make_instance({{1, 3, 1}});
  Schedule too_early = Schedule::from_starts({units(0.5)});
  EXPECT_THROW(too_early.validate(inst), AssertionError);
  EXPECT_FALSE(too_early.is_valid(inst));
  Schedule too_late = Schedule::from_starts({units(3.5)});
  EXPECT_THROW(too_late.validate(inst), AssertionError);
  Schedule ok = Schedule::from_starts({units(3.0)});
  EXPECT_NO_THROW(ok.validate(inst));
  EXPECT_TRUE(ok.is_valid(inst));
}

TEST(Schedule, IncompleteDetected) {
  const Instance inst = make_instance({{0, 1, 1}, {0, 1, 1}});
  Schedule partial(2);
  partial.set_start(0, units(0.0));
  EXPECT_FALSE(partial.complete());
  EXPECT_FALSE(partial.is_valid(inst));
  EXPECT_THROW(partial.validate(inst), AssertionError);
  EXPECT_THROW(partial.start(1), AssertionError);
}

TEST(Schedule, DoubleStartRejected) {
  Schedule s(1);
  s.set_start(0, units(0.0));
  EXPECT_THROW(s.set_start(0, units(1.0)), AssertionError);
}

TEST(Schedule, ConcurrencyHalfOpen) {
  const Instance inst = make_instance({{0, 10, 2}, {0, 10, 2}});
  const Schedule s = Schedule::from_starts({units(0.0), units(2.0)});
  // [0,2) and [2,4): at t=2 only the second job runs.
  EXPECT_EQ(s.concurrency_at(inst, units(1.0)), 1u);
  EXPECT_EQ(s.concurrency_at(inst, units(2.0)), 1u);
  EXPECT_EQ(s.max_concurrency(inst), 1u);

  const Schedule both = Schedule::from_starts({units(0.0), units(1.0)});
  EXPECT_EQ(both.max_concurrency(inst), 2u);
  EXPECT_EQ(both.concurrency_at(inst, units(1.5)), 2u);
}

TEST(Schedule, MetricsAggregation) {
  const Instance inst = make_instance({{0, 5, 2}, {1, 6, 2}});
  const Schedule s = Schedule::from_starts({units(1.0), units(1.0)});
  const ScheduleMetrics m = compute_metrics(inst, s);
  EXPECT_EQ(m.span, units(2.0));
  EXPECT_EQ(m.makespan_end, units(3.0));
  EXPECT_EQ(m.max_concurrency, 2u);
  EXPECT_EQ(m.total_delay, units(1.0));  // job 0 delayed 1, job 1 delayed 0
  EXPECT_EQ(m.total_work, units(4.0));
  EXPECT_DOUBLE_EQ(m.span_over_work, 0.5);
}

TEST(Schedule, ToStringListsJobs) {
  const Instance inst = make_instance({{0, 1, 1}});
  Schedule s(1);
  EXPECT_NE(s.to_string(inst).find("unscheduled"), std::string::npos);
  s.set_start(0, units(0.0));
  EXPECT_NE(s.to_string(inst).find("start"), std::string::npos);
}

TEST(Schedule, ConvertedInstanceReadsTheSameRows) {
  const Instance inst = make_instance({{0, 5, 2}, {1, 6, 2}});
  const InstanceView view = inst;
  EXPECT_EQ(view.size(), inst.size());
  EXPECT_EQ(view.arrivals().data(), inst.view().arrivals().data());
  const Schedule s = Schedule::from_starts({units(1.0), units(3.0)});
  EXPECT_EQ(s.span(inst), s.span(inst.view()));
}

TEST(Schedule, ViewSmallerThanScheduleThrows) {
  // A view accessor is unchecked, so every query that indexes rows by the
  // schedule's ids must refuse a view that lacks some of them (as
  // Instance::job's range check used to).
  const Instance inst = make_instance({{0, 5, 2}, {1, 6, 2}});
  const InstanceView prefix(inst.view().arrivals().first(1),
                            inst.view().deadlines().first(1),
                            inst.view().lengths().first(1));
  const Schedule s = Schedule::from_starts({units(1.0), units(3.0)});
  EXPECT_THROW((void)s.active_interval(prefix, 1), AssertionError);
  EXPECT_THROW((void)s.active_set(prefix), AssertionError);
  EXPECT_THROW((void)s.span(prefix), AssertionError);
  EXPECT_THROW(s.validate(prefix), AssertionError);
  EXPECT_FALSE(s.is_valid(prefix));
  EXPECT_THROW((void)s.concurrency_at(prefix, units(1.0)), AssertionError);
  EXPECT_THROW((void)s.max_concurrency(prefix), AssertionError);
  EXPECT_THROW((void)s.concurrency_profile(prefix), AssertionError);
  EXPECT_THROW((void)s.makespan_end(prefix), AssertionError);
  EXPECT_THROW((void)s.total_delay(prefix), AssertionError);
  EXPECT_THROW((void)s.to_string(prefix), AssertionError);
  // Unset slots beyond the view are refused too: the view must cover
  // the whole schedule.
  Schedule partial(2);
  partial.set_start(0, units(1.0));
  EXPECT_THROW((void)partial.max_concurrency(prefix), AssertionError);
  EXPECT_THROW((void)partial.to_string(prefix), AssertionError);
  // The covered prefix itself is fine.
  EXPECT_EQ(s.active_interval(prefix, 0), Interval(units(1.0), units(3.0)));
}

}  // namespace
}  // namespace fjs
