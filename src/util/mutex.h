#ifndef AUTOTEST_UTIL_MUTEX_H_
#define AUTOTEST_UTIL_MUTEX_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "util/thread_annotations.h"

// Annotated mutex / condition-variable wrappers (DESIGN.md §4i).
//
// util::Mutex is std::mutex plus the AT_CAPABILITY attribute, so Clang's
// thread-safety analysis can prove that members marked
// `AT_GUARDED_BY(mu_)` are only touched with `mu_` held. util::MutexLock
// is the scoped holder (lock_guard with AT_SCOPED_CAPABILITY), and
// util::CondVar wraps std::condition_variable_any so waits take a Mutex
// directly — no unannotated std::unique_lock escape route.
//
// Policy (§4i): every mutex data member in src/ must be util::Mutex, not
// raw std::mutex, and every member it protects must carry AT_GUARDED_BY.
// at_lint rule R7 enforces both tree-wide even on compilers where the
// attributes are no-ops; the AT_THREAD_SAFETY=ON Clang build then checks
// the annotations themselves.

namespace autotest::util {

/// std::mutex with the capability attribute. Also satisfies C++ Lockable
/// (lower-case lock/unlock/try_lock) so std facilities can hold it, but
/// annotated code should use the RAII MutexLock or the Capitalized
/// methods, which carry the acquire/release attributes.
class AT_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() AT_ACQUIRE() { mu_.lock(); }
  void Unlock() AT_RELEASE() { mu_.unlock(); }

  // Lockable aliases for std:: facilities (CondVar's wait re-lock path).
  void lock() AT_ACQUIRE() { mu_.lock(); }
  void unlock() AT_RELEASE() { mu_.unlock(); }
  bool try_lock() AT_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// RAII scope holding a Mutex (std::lock_guard with annotations). Takes a
/// pointer so the guarded mutex is syntactically obvious at the call site
/// — `MutexLock lock(&mu_);` — and greppable by at_lint's scope parser.
class AT_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) AT_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() AT_RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// Condition variable bound to util::Mutex. Wait/WaitFor must be called
/// with the mutex held (AT_REQUIRES); internally the wait releases and
/// re-acquires it, which is invisible to the analysis by design — the
/// bodies are AT_NO_THREAD_SAFETY_ANALYSIS because the capability state
/// is unchanged at entry and exit, exactly like absl::CondVar.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until notified. Spurious wakeups possible; callers loop on
  /// their predicate.
  void Wait(Mutex& mu) AT_REQUIRES(mu) AT_NO_THREAD_SAFETY_ANALYSIS {
    cv_.wait(mu);
  }

  /// Blocks until pred() is true (re-checked after every wakeup).
  template <typename Pred>
  void Wait(Mutex& mu, Pred pred)
      AT_REQUIRES(mu) AT_NO_THREAD_SAFETY_ANALYSIS {
    cv_.wait(mu, std::move(pred));
  }

  /// Blocks until notified or `micros` elapsed. Returns true when
  /// notified before the timeout (std::cv_status::no_timeout).
  bool WaitForMicros(Mutex& mu, int64_t micros)
      AT_REQUIRES(mu) AT_NO_THREAD_SAFETY_ANALYSIS {
    return cv_.wait_for(mu, std::chrono::microseconds(micros)) ==
           std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  // condition_variable_any works with any Lockable, so waits hold the
  // annotated Mutex itself instead of an unannotated unique_lock.
  std::condition_variable_any cv_;
};

}  // namespace autotest::util

#endif  // AUTOTEST_UTIL_MUTEX_H_
