// Portable shim over the Clang Thread Safety Analysis attributes.
//
// Under Clang each macro expands to the corresponding __attribute__ so that
// -Wthread-safety can prove lock discipline at compile time; under GCC
// (which ships no thread-safety analysis) every macro expands to nothing and
// the annotated tree builds identically. Naming follows the shim from the
// official Clang documentation with a SEALDL_ prefix so the macros cannot
// collide with gtest/benchmark headers.
//
// Turn the analysis on with -DSEALDL_THREAD_SAFETY=ON, which adds
// -Wthread-safety -Wthread-safety-beta -Werror=thread-safety under Clang
// (root CMakeLists; policy and examples in docs/ANALYSIS.md, "Concurrency
// analysis"). The annotated wrappers that use this shim live in
// util/mutex.hpp.
#pragma once

#if defined(__clang__)
#define SEALDL_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define SEALDL_THREAD_ANNOTATION(x)
#endif

/// Marks a class as a capability (lockable). The string names the capability
/// kind in diagnostics, conventionally "mutex".
#define SEALDL_CAPABILITY(x) SEALDL_THREAD_ANNOTATION(capability(x))

/// Marks an RAII class whose constructor acquires and destructor releases.
#define SEALDL_SCOPED_CAPABILITY SEALDL_THREAD_ANNOTATION(scoped_lockable)

/// Data member may only be touched while holding the given capability.
#define SEALDL_GUARDED_BY(x) SEALDL_THREAD_ANNOTATION(guarded_by(x))

/// Pointer member whose pointee is protected by the given capability.
#define SEALDL_PT_GUARDED_BY(x) SEALDL_THREAD_ANNOTATION(pt_guarded_by(x))

/// Declares a required lock-acquisition order between capabilities.
#define SEALDL_ACQUIRED_BEFORE(...) \
  SEALDL_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define SEALDL_ACQUIRED_AFTER(...) \
  SEALDL_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

/// Function requires the capability held on entry (and does not release it).
#define SEALDL_REQUIRES(...) \
  SEALDL_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define SEALDL_REQUIRES_SHARED(...) \
  SEALDL_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

/// Function acquires the capability (must not be held on entry).
#define SEALDL_ACQUIRE(...) \
  SEALDL_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define SEALDL_ACQUIRE_SHARED(...) \
  SEALDL_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))

/// Function releases the capability (must be held on entry).
#define SEALDL_RELEASE(...) \
  SEALDL_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define SEALDL_RELEASE_SHARED(...) \
  SEALDL_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))

/// Function acquires the capability iff it returns the given value.
#define SEALDL_TRY_ACQUIRE(...) \
  SEALDL_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/// Function must be called without the capability held (anti-deadlock for
/// self-locking public APIs).
#define SEALDL_EXCLUDES(...) SEALDL_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Asserts at runtime that the capability is held (tells the analysis so).
#define SEALDL_ASSERT_CAPABILITY(x) SEALDL_THREAD_ANNOTATION(assert_capability(x))

/// Function returns a reference to the given capability.
#define SEALDL_RETURN_CAPABILITY(x) SEALDL_THREAD_ANNOTATION(lock_returned(x))

/// Escape hatch: function body is not analyzed. Use only for code that is
/// correct for reasons the analysis cannot express; leave a comment saying
/// why.
#define SEALDL_NO_THREAD_SAFETY_ANALYSIS \
  SEALDL_THREAD_ANNOTATION(no_thread_safety_analysis)
