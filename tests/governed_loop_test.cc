// The governed-step protocol (util/governed_loop.h): step order, the one
// truncation rule, and checkpoint/resume at the top of a step.

#include "qrel/util/governed_loop.h"

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "qrel/util/fault_injection.h"

namespace qrel {
namespace {

class GovernedLoopTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Instance().Reset(); }
  void TearDown() override { FaultInjector::Instance().Reset(); }
};

// Runs 10 steps whose body fails with `code` at step `fail_at`.
Status RunFailingAt(uint64_t fail_at, StatusCode code, bool allow,
                    uint64_t* step, bool* truncated) {
  GovernedLoop loop(nullptr, {.kind = "test.loop", .allow_truncation = allow});
  Status status = loop.Run(
      step, 10,
      [&]() -> Status {
        return *step == fail_at ? Status(code, "tripped") : Status::Ok();
      },
      [](SnapshotWriter&) {});
  *truncated = loop.truncated();
  return status;
}

TEST_F(GovernedLoopTest, TruncatesOnlyBudgetTripsAfterAStep) {
  for (StatusCode code :
       {StatusCode::kDeadlineExceeded, StatusCode::kResourceExhausted}) {
    uint64_t step = 0;
    bool truncated = false;
    EXPECT_TRUE(RunFailingAt(4, code, true, &step, &truncated).ok());
    EXPECT_TRUE(truncated);
    EXPECT_EQ(step, 4u);

    step = 0;
    EXPECT_EQ(RunFailingAt(0, code, true, &step, &truncated).code(), code)
        << "no completed step: nothing to keep";
    EXPECT_FALSE(truncated);

    step = 0;
    EXPECT_EQ(RunFailingAt(4, code, false, &step, &truncated).code(), code);
    EXPECT_FALSE(truncated);
  }
  for (StatusCode code : {StatusCode::kCancelled, StatusCode::kInternal}) {
    uint64_t step = 0;
    bool truncated = false;
    EXPECT_EQ(RunFailingAt(4, code, true, &step, &truncated).code(), code);
    EXPECT_FALSE(truncated);
  }
}

TEST_F(GovernedLoopTest, ChargeTripTruncatesButCancellationNever) {
  RunContext budget = RunContext::WithWorkBudget(6);
  GovernedLoop loop(&budget, {.kind = "test.loop", .allow_truncation = true});
  uint64_t step = 0;
  ASSERT_TRUE(loop.Run(
      &step, 10, [] { return Status::Ok(); }, [](SnapshotWriter&) {}).ok());
  EXPECT_TRUE(loop.truncated());
  EXPECT_EQ(step, 6u);

  RunContext cancelled;
  GovernedLoop cancel_loop(&cancelled,
                           {.kind = "test.loop", .allow_truncation = true});
  step = 0;
  Status status = cancel_loop.Run(
      &step, 10,
      [&]() -> Status {
        if (step == 3) {
          cancelled.RequestCancellation();
        }
        return Status::Ok();
      },
      [](SnapshotWriter&) {});
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_FALSE(cancel_loop.truncated());
  EXPECT_EQ(step, 4u);
}

TEST_F(GovernedLoopTest, FaultSiteErrorsNeverTruncate) {
  // Even a budget-coded injected fault surfaces as it is.
  FaultInjector::Instance().Arm("test.governed_loop.step", 3,
                                StatusCode::kResourceExhausted);
  GovernedLoop loop(nullptr, {.kind = "test.loop",
                              .fault_site = "test.governed_loop.step",
                              .allow_truncation = true});
  uint64_t step = 0;
  int bodies = 0;
  Status status = loop.Run(
      &step, 10,
      [&] {
        ++bodies;
        return Status::Ok();
      },
      [](SnapshotWriter&) {});
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_FALSE(loop.truncated());
  EXPECT_EQ(step, 2u);
  EXPECT_EQ(bodies, 2);
}

TEST_F(GovernedLoopTest, StopEndsAfterTheCurrentStep) {
  GovernedLoop loop(nullptr, {.kind = "test.loop"});
  uint64_t step = 0;
  ASSERT_TRUE(loop.Run(
      &step, 10,
      [&] {
        if (step == 2) {
          loop.Stop();
        }
        return Status::Ok();
      },
      [](SnapshotWriter&) {}).ok());
  EXPECT_EQ(step, 3u);
}

TEST_F(GovernedLoopTest, NoWriterCallWithoutACheckpointer) {
  RunContext ctx;
  GovernedLoop loop(&ctx, {.kind = "test.loop"});
  uint64_t step = 0;
  int writes = 0;
  ASSERT_TRUE(loop.Run(
      &step, 100, [] { return Status::Ok(); },
      [&](SnapshotWriter&) { ++writes; }).ok());
  EXPECT_EQ(writes, 0);
  EXPECT_EQ(ctx.work_spent(), 100u);
}

TEST_F(GovernedLoopTest, ResumeReentersTheInterruptedStep) {
  std::string path = ::testing::TempDir() + "/governed_loop_resume.snapshot";
  std::remove(path.c_str());
  // A loop summing step indices, killed by a budget after 7 steps.
  auto run = [&](RunContext* ctx, uint64_t* sum) {
    GovernedLoop loop(ctx, {.kind = "test.loop.v1", .fingerprint = 42});
    uint64_t step = 0;
    *sum = 0;
    QREL_RETURN_IF_ERROR(loop.Resume([&](SnapshotReader& r) -> Status {
      QREL_RETURN_IF_ERROR(r.U64(&step));
      return r.U64(sum);
    }));
    return loop.Run(
        &step, 20,
        [&] {
          *sum += step;
          return Status::Ok();
        },
        [&](SnapshotWriter& w) {
          w.U64(step);
          w.U64(*sum);
        });
  };
  uint64_t sum = 0;
  {
    Checkpointer checkpointer(path, std::chrono::hours(24));
    ASSERT_TRUE(checkpointer.LoadForResume().ok());
    RunContext ctx = RunContext::WithWorkBudget(7);
    ctx.SetCheckpointer(&checkpointer);
    EXPECT_EQ(run(&ctx, &sum).code(), StatusCode::kResourceExhausted);
    EXPECT_EQ(checkpointer.writes(), 1u) << "the pre-trip flush";
  }
  {
    Checkpointer checkpointer(path, std::chrono::hours(24));
    ASSERT_TRUE(checkpointer.LoadForResume().ok());
    RunContext ctx;
    ctx.SetCheckpointer(&checkpointer);
    ASSERT_TRUE(run(&ctx, &sum).ok());
    EXPECT_TRUE(checkpointer.resume_consumed());
    EXPECT_EQ(sum, 190u);               // 0 + 1 + ... + 19
    EXPECT_EQ(ctx.work_spent(), 20u);   // 7 restored + 13 resumed
  }
  std::remove(path.c_str());
}

TEST_F(GovernedLoopTest, StepPastTheEndIsDataLoss) {
  GovernedLoop loop(nullptr, {.kind = "test.loop"});
  uint64_t step = 11;
  EXPECT_EQ(loop.Run(&step, 10, [] { return Status::Ok(); },
                     [](SnapshotWriter&) {})
                .code(),
            StatusCode::kDataLoss);
}

}  // namespace
}  // namespace qrel
