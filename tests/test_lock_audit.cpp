// Run-time concurrency checks that survive alongside the compile-time
// thread-safety annotations: the thread-confinement sentinel that guards the
// unlocked telemetry merge paths, and the one place two annotated mutexes
// meet (a ThreadPool task writing to the log sink), which the TSan leg runs
// under its deadlock detector.
#include <atomic>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/logging.hpp"
#include "util/mutex.hpp"
#include "util/thread_pool.hpp"

namespace {

using sealdl::util::AccessGuard;
using sealdl::util::AccessSentinel;

TEST(AccessSentinel, AllowsSameThreadReentry) {
  AccessSentinel sentinel("test.confined");
  AccessGuard outer(sentinel);
  EXPECT_NO_THROW(AccessGuard inner(sentinel));
}

TEST(AccessSentinel, ThrowsOnConcurrentEntry) {
  AccessSentinel sentinel("test.confined");
  AccessGuard held(sentinel);
  // Deterministic overlap: the main thread keeps the guard alive while the
  // spawned thread tries to enter the same confinement domain.
  std::string message;
  std::thread intruder([&sentinel, &message] {
    try {
      AccessGuard clash(sentinel);
    } catch (const std::logic_error& error) {
      message = error.what();
    }
  });
  intruder.join();
  EXPECT_NE(message.find("test.confined"), std::string::npos) << message;
}

TEST(AccessSentinel, CopyStartsFreshConfinementDomain) {
  AccessSentinel original("test.confined");
  AccessGuard held(original);
  // The copy is taken while `original` is owned by this thread; a second
  // thread may still enter the copy.
  AccessSentinel copy(original);
  bool threw = false;
  std::thread other([&copy, &threw] {
    try {
      AccessGuard guard(copy);
    } catch (const std::logic_error&) {
      threw = true;
    }
  });
  other.join();
  EXPECT_FALSE(threw);
}

// The pool mutex and the log-sink mutex are never held together: a task
// runs with no pool lock held, so logging from inside it nests nothing.
TEST(ThreadPoolLogging, TasksThatLogAllComplete) {
  std::atomic<int> ran{0};
  {
    sealdl::util::ThreadPool pool(3);
    std::vector<std::future<void>> futures;
    futures.reserve(8);
    for (int i = 0; i < 8; ++i) {
      futures.push_back(pool.submit([&ran, i] {
        sealdl::util::log_line(sealdl::util::LogLevel::kDebug,
                               "pool task " + std::to_string(i));
        ++ran;
      }));
    }
    for (auto& future : futures) future.get();
  }
  EXPECT_EQ(ran.load(), 8);
}

}  // namespace
