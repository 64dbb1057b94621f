// Thread-safety annotated synchronization primitives.
//
// Every mutex in the library lives behind these wrappers so that Clang's
// -Wthread-safety analysis can verify the locking contracts at compile
// time: fields carry GUARDED_BY(mu), lock-requiring helpers carry
// REQUIRES(mu), and lock-taking entry points carry EXCLUDES(mu). On
// GCC/MSVC the annotation macros expand to nothing and the wrappers
// compile down to the std primitives they hold, so there is no runtime
// or portability cost — only Clang builds get the verification (CI runs
// one on every push with -Werror=thread-safety).
//
// Conventions (see docs/ARCHITECTURE.md "Static analysis & concurrency
// contracts"):
//   - Annotate every field a mutex protects with GUARDED_BY(mu_); the
//     analysis then rejects any unlocked access to it.
//   - Prefer MutexLock scopes over manual Lock()/Unlock() pairs.
//   - Condition-variable waits are explicit loops:
//       MutexLock lock(mu_);
//       while (!predicate) cv_.Wait(mu_);
//     (not wait-with-lambda: the analysis treats a lambda as a separate
//     function and cannot see that the capability is held inside it).
//   - A helper that must be called with the lock held takes no lock
//     itself and is annotated REQUIRES(mu_); by convention its name ends
//     in "Locked".
//
// tools/privhp_lint.py enforces that no naked std::mutex /
// std::lock_guard / std::condition_variable appears outside this header.

#ifndef PRIVHP_COMMON_SYNC_H_
#define PRIVHP_COMMON_SYNC_H_

#include <chrono>
#include <condition_variable>
#include <mutex>

// ---------------------------------------------------------------------------
// Clang thread-safety annotation macros (no-ops elsewhere). Names follow
// the canonical set from the Clang Thread Safety Analysis documentation.
// ---------------------------------------------------------------------------

#if defined(__clang__)
#define PRIVHP_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define PRIVHP_THREAD_ANNOTATION(x)  // no-op on GCC/MSVC
#endif

/// Marks a class as a lockable capability ("mutex").
#define CAPABILITY(x) PRIVHP_THREAD_ANNOTATION(capability(x))

/// Marks a class whose constructor acquires and destructor releases a
/// capability (RAII lock scopes).
#define SCOPED_CAPABILITY PRIVHP_THREAD_ANNOTATION(scoped_lockable)

/// The annotated field may only be accessed while holding the given
/// capability.
#define GUARDED_BY(x) PRIVHP_THREAD_ANNOTATION(guarded_by(x))

/// The data the annotated pointer points at may only be accessed while
/// holding the given capability (the pointer itself is unguarded).
#define PT_GUARDED_BY(x) PRIVHP_THREAD_ANNOTATION(pt_guarded_by(x))

/// The annotated function must be called with the given capabilities
/// held (and does not release them).
#define REQUIRES(...) \
  PRIVHP_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// The annotated function acquires the given capabilities (held on
/// return). With no argument on a capability member function, acquires
/// `this`.
#define ACQUIRE(...) \
  PRIVHP_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// The annotated function releases the given capabilities.
#define RELEASE(...) \
  PRIVHP_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// The annotated function must NOT be called with the given capabilities
/// held (it acquires them itself; holding them would deadlock).
#define EXCLUDES(...) PRIVHP_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Declares that the calling thread already holds the capability in a
/// way the analysis cannot see (runtime-checked escape hatch).
#define ASSERT_CAPABILITY(x) PRIVHP_THREAD_ANNOTATION(assert_capability(x))

/// The annotated function returns a reference to the given capability.
#define RETURN_CAPABILITY(x) PRIVHP_THREAD_ANNOTATION(lock_returned(x))

/// Disables the analysis for one function. Last resort; every use needs
/// a comment explaining why the contract cannot be expressed.
#define NO_THREAD_SAFETY_ANALYSIS \
  PRIVHP_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace privhp {

/// \brief Annotated std::mutex. Prefer MutexLock scopes to calling
/// Lock()/Unlock() directly.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// \brief RAII lock scope over a Mutex (std::lock_guard shape, plus the
/// early-Unlock() escape some hand-off paths need).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(&mu), held_(true) {
    mu_->Lock();
  }
  ~MutexLock() RELEASE() {
    if (held_) mu_->Unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  /// \brief Releases the mutex before the end of the scope (e.g. to run
  /// a notification outside the critical section). The destructor then
  /// does nothing.
  void Unlock() RELEASE() {
    held_ = false;
    mu_->Unlock();
  }

  /// \brief Re-acquires after an early Unlock().
  void Lock() ACQUIRE() {
    mu_->Lock();
    held_ = true;
  }

 private:
  Mutex* mu_;
  bool held_;
};

/// \brief Condition variable paired with Mutex.
///
/// There is deliberately no wait-with-predicate overload: the analysis
/// treats a predicate lambda as a separate function that does not hold
/// the capability, so guarded reads inside it would (rightly) fail to
/// compile. Write the loop out instead:
///
///   MutexLock lock(mu_);
///   while (!ready_) cv_.Wait(mu_);       // ready_ GUARDED_BY(mu_)
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// \brief Atomically releases \p mu (which the caller must hold),
  /// blocks until notified (or spuriously woken), and re-acquires \p mu
  /// before returning. Always re-test the predicate in a loop.
  void Wait(Mutex& mu) REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // ownership stays with the caller's MutexLock
  }

  /// \brief Wait() with a timeout; returns false on timeout, true when
  /// notified. The mutex is held again either way.
  template <class Rep, class Period>
  bool WaitFor(Mutex& mu, const std::chrono::duration<Rep, Period>& timeout)
      REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    const std::cv_status status = cv_.wait_for(lock, timeout);
    lock.release();
    return status == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace privhp

#endif  // PRIVHP_COMMON_SYNC_H_
