// Annotated mutex / scoped-lock / condvar wrappers plus a thread-confinement
// check for state that is deliberately left unlocked.
//
// Every lock class here carries Clang Thread Safety Analysis attributes
// (util/thread_annotations.hpp). Building with -DSEALDL_THREAD_SAFETY=ON
// turns any access to a SEALDL_GUARDED_BY member without the guarding Mutex
// held into a hard compile error, so the lock discipline of ThreadPool and
// the logging sink is proved, not merely exercised by TSan. Lock-order
// inversions at run time are TSan's deadlock detector's job (CI tsan leg).
#pragma once

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>

#include "util/thread_annotations.hpp"

namespace sealdl::util {

/// std::mutex with a capability annotation. Every shared mutable member it
/// protects should be declared SEALDL_GUARDED_BY(it).
class SEALDL_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() SEALDL_ACQUIRE() { mu_.lock(); }
  void unlock() SEALDL_RELEASE() { mu_.unlock(); }

 private:
  std::mutex mu_;
};

/// Scoped lock over Mutex; the annotated replacement for std::lock_guard.
class SEALDL_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) SEALDL_ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() SEALDL_RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable paired with util::Mutex. From the analysis's point of
/// view the capability stays held across wait() (the internal release/
/// reacquire is invisible, matching the usual TSA convention).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  void notify_one() noexcept { cv_.notify_one(); }
  void notify_all() noexcept { cv_.notify_all(); }

  /// Atomically releases `mu` and blocks; `mu` is held again on return.
  void wait(Mutex& mu) SEALDL_REQUIRES(mu) { cv_.wait(mu); }

 private:
  std::condition_variable_any cv_;
};

/// Checker for thread-confined ("externally synchronized by the owner")
/// state — the telemetry merge paths. It guards nothing by itself: a second
/// thread entering a scope (AccessGuard) while another thread is inside the
/// same sentinel throws std::logic_error naming the sentinel. Copy and move
/// deliberately reset the owner: a moved-to registry starts a fresh
/// confinement domain (parallel layer tasks build fragments on
/// workers, then hand them to the merging thread by value).
class AccessSentinel {
 public:
  explicit AccessSentinel(const char* name) : name_(name) {}
  AccessSentinel(const AccessSentinel& other) : name_(other.name_) {}
  AccessSentinel& operator=(const AccessSentinel& other) {
    name_ = other.name_;
    return *this;
  }

 private:
  friend class AccessGuard;
  const char* name_;
  std::atomic<std::thread::id> owner_{};
};

/// RAII entry into a thread-confined section. Reentrant on the same thread.
class AccessGuard {
 public:
  explicit AccessGuard(AccessSentinel& sentinel) {
    std::thread::id expected{};
    if (sentinel.owner_.compare_exchange_strong(expected,
                                                std::this_thread::get_id())) {
      sentinel_ = &sentinel;
    } else if (expected != std::this_thread::get_id()) {
      throw std::logic_error(std::string("thread-confinement violation: ") +
                             sentinel.name_ +
                             " entered by a second thread concurrently");
    }
  }
  ~AccessGuard() {
    if (sentinel_) sentinel_->owner_.store(std::thread::id{});
  }

  AccessGuard(const AccessGuard&) = delete;
  AccessGuard& operator=(const AccessGuard&) = delete;

 private:
  AccessSentinel* sentinel_ = nullptr;
};

}  // namespace sealdl::util
