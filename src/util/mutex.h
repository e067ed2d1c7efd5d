#ifndef PAE_UTIL_MUTEX_H_
#define PAE_UTIL_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "util/thread_annotations.h"

namespace pae::util {

/// Annotated mutex: a thin std::mutex wrapper that Clang's
/// -Wthread-safety analysis can see. Every field the mutex protects is
/// declared PAE_GUARDED_BY(the_mutex), every helper that expects it
/// held is PAE_REQUIRES(the_mutex), and the compiler then proves the
/// lock discipline on every path — before a test (or TSan) ever runs.
///
/// This is the only mutex type allowed outside src/util/ (pae_lint's
/// raw-mutex rule): std::mutex carries no annotations, so code using it
/// is invisible to the analysis.
class PAE_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() PAE_ACQUIRE() { mu_.lock(); }
  void Unlock() PAE_RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII lock over a pae::util::Mutex — the annotated std::lock_guard.
class PAE_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) PAE_ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() PAE_RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// Condition variable paired with Mutex. Wait() takes the mutex the
/// caller already holds (PAE_REQUIRES-checked) and re-holds it on
/// return, exactly like std::condition_variable — but spelled so the
/// analysis tracks the lock across the wait.
///
/// Use the explicit-loop idiom rather than a predicate lambda:
///
///   MutexLock lock(mu_);
///   while (!ready_) cv_.Wait(mu_);   // ready_ is PAE_GUARDED_BY(mu_)
///
/// A predicate lambda would be analyzed as a separate function that
/// touches guarded state without visibly holding the lock.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu`, waits, and re-acquires `mu` before
  /// returning. Spurious wakeups happen; always wait in a while loop.
  void Wait(Mutex& mu) PAE_REQUIRES(mu) {
    // Adopt the already-held native mutex for the duration of the wait;
    // release() keeps it held when the unique_lock goes out of scope.
    std::unique_lock<std::mutex> native(mu.mu_, std::adopt_lock);
    cv_.wait(native);
    native.release();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace pae::util

#endif  // PAE_UTIL_MUTEX_H_
