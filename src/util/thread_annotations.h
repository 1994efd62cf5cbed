// Copyright (c) the semis authors.
// Clang Thread Safety Analysis: macros plus annotated Mutex / MutexLock /
// CondVar wrappers over the std primitives, so the locking discipline of
// every concurrent subsystem (thread pool, engine RCU) is a
// compile-time contract instead of a TSan-time observation.
//
// Under clang, `-Wthread-safety -Werror` (the `clang-tsa` preset, enforced
// in CI) rejects any access to a GUARDED_BY member without its mutex and
// any call that violates a REQUIRES/EXCLUDES contract. Under GCC (which
// has no thread-safety analysis) every macro expands to nothing and the
// wrappers behave exactly like the std types they wrap.
//
// Conventions (see docs/architecture.md, "Lock hierarchy"):
//   * every mutex member documents what it guards via GUARDED_BY on the
//     guarded members, not just a comment;
//   * functions that must (or must not) hold a mutex carry REQUIRES /
//     EXCLUDES on their declaration;
//   * lock ordering between two mutexes of one object is declared with
//     ACQUIRED_BEFORE on the member.
#ifndef SEMIS_UTIL_THREAD_ANNOTATIONS_H_
#define SEMIS_UTIL_THREAD_ANNOTATIONS_H_

#include <condition_variable>
#include <mutex>

#if defined(__clang__) && (!defined(SWIG))
#define SEMIS_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define SEMIS_THREAD_ANNOTATION_(x)  // no-op on GCC/MSVC
#endif

/// Declares that a member is protected by the given capability (mutex):
/// reads require the mutex held shared or exclusive, writes exclusive.
#define GUARDED_BY(x) SEMIS_THREAD_ANNOTATION_(guarded_by(x))

/// As GUARDED_BY, for the data a pointer member points TO.
#define PT_GUARDED_BY(x) SEMIS_THREAD_ANNOTATION_(pt_guarded_by(x))

/// The annotated function must be called with the mutex(es) held.
#define REQUIRES(...) \
  SEMIS_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))

/// The annotated function must be called with the mutex(es) NOT held
/// (it acquires them itself, or a deadlock/ordering rule forbids them).
#define EXCLUDES(...) SEMIS_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))

/// The annotated function acquires the mutex(es) and returns holding them.
#define ACQUIRE(...) \
  SEMIS_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))

/// The annotated function releases the mutex(es).
#define RELEASE(...) \
  SEMIS_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))

/// The annotated function tries to acquire the mutex(es); the first
/// argument is the return value that means success.
#define TRY_ACQUIRE(...) \
  SEMIS_THREAD_ANNOTATION_(try_acquire_capability(__VA_ARGS__))

/// Declares a lock-ordering edge: this mutex is always taken before `x`.
#define ACQUIRED_BEFORE(...) \
  SEMIS_THREAD_ANNOTATION_(acquired_before(__VA_ARGS__))

/// Declares a lock-ordering edge: this mutex is always taken after `x`.
#define ACQUIRED_AFTER(...) \
  SEMIS_THREAD_ANNOTATION_(acquired_after(__VA_ARGS__))

/// Marks a type as a lockable capability (used on the Mutex wrapper).
#define CAPABILITY(x) SEMIS_THREAD_ANNOTATION_(capability(x))

/// Marks an RAII type whose constructor acquires and destructor releases.
#define SCOPED_CAPABILITY SEMIS_THREAD_ANNOTATION_(scoped_lockable)

/// Returns a reference to the capability guarding the annotated function's
/// result (e.g. an accessor handing out a guarded member).
#define RETURN_CAPABILITY(x) SEMIS_THREAD_ANNOTATION_(lock_returned(x))

/// Escape hatch: the function's locking cannot be expressed to the
/// analysis (e.g. lock handoff between threads). Use sparingly and
/// document why at the call site.
#define NO_THREAD_SAFETY_ANALYSIS \
  SEMIS_THREAD_ANNOTATION_(no_thread_safety_analysis)

namespace semis {

/// std::mutex with thread-safety-analysis annotations. Satisfies
/// BasicLockable (lowercase lock/unlock), so CondVar can wait on it
/// directly and std RAII types accept it.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }
  bool TryLock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

  // BasicLockable spelling for std facilities (condition_variable_any,
  // std::scoped_lock). Same annotations as the PascalCase flavors.
  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// RAII lock over a Mutex, annotated so the analysis tracks its scope.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// Condition variable paired with Mutex. Wait() takes the Mutex directly
/// (condition_variable_any over the BasicLockable wrapper); the analysis
/// treats the mutex as held across the wait -- which is exactly the
/// caller-visible contract, since Wait reacquires before returning.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `*mu`, waits, and reacquires before returning.
  void Wait(Mutex* mu) REQUIRES(mu) { cv_.wait(*mu); }

  /// Predicate flavor: waits until `pred()` holds. `pred` runs with the
  /// mutex held, so it may read GUARDED_BY(*mu) members freely.
  template <typename Pred>
  void Wait(Mutex* mu, Pred pred) REQUIRES(mu) {
    cv_.wait(*mu, std::move(pred));
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable_any cv_;
};

}  // namespace semis

#endif  // SEMIS_UTIL_THREAD_ANNOTATIONS_H_
