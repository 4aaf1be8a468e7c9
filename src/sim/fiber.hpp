#pragma once

#include <exception>
#include <functional>
#include <memory>

namespace mpipred::sim {

/// A stackful cooperative coroutine ("fiber").
///
/// The simulation runs every rank of the simulated machine as a fiber inside
/// one OS thread: `resume()` transfers control into the fiber, and the fiber
/// gives control back with `Fiber::yield()`. A resume/yield round trip is
/// two _setjmp/_longjmp pairs and no system call: about 60 ns in a Release
/// build (GCC 12.2, 4-vCPU Xeon host). That is what makes simulating
/// millions of blocking MPI calls practical, and the single-threaded
/// execution makes every run bit-reproducible. Switches are annotated for
/// ASan and TSan, so both see every stack change.
///
/// Exceptions thrown inside the fiber body are captured and rethrown from
/// the `resume()` call that observed the termination.
class Fiber {
 public:
  /// Creates a suspended fiber that will run `body` on first resume, on a
  /// 256 KiB stack of its own.
  explicit Fiber(std::function<void()> body);

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;
  Fiber(Fiber&&) = delete;
  Fiber& operator=(Fiber&&) = delete;

  /// Destroying a fiber that has not finished unwinds it first (see
  /// unwind()), so the objects its frames own are destroyed. Destroy
  /// fibers from scheduler context; from inside a fiber the stack can only
  /// be released as is.
  ~Fiber();

  /// Runs the fiber until it yields or finishes. Must be called from
  /// scheduler context (never from inside any fiber). Rethrows any
  /// exception that escaped the fiber body.
  void resume();

  /// Suspends the currently running fiber, returning control to the
  /// scheduler context that called resume(). Must be called from inside a
  /// fiber.
  static void yield();

  /// Destroys every frame of a suspended fiber: resumes it once so the
  /// yield() it is suspended in throws a private token, which only the
  /// fiber's entry function catches. The fiber is finished afterwards, and
  /// an exception that a destructor raises on the way is discarded. The
  /// body must not suspend again while unwinding (a yield() then throws
  /// the token again). No-op for a fiber that never started, has finished,
  /// or when called from inside a fiber.
  void unwind() noexcept;

  /// True once the body has returned (or thrown).
  [[nodiscard]] bool finished() const noexcept { return finished_; }

  /// True while this fiber is the one currently executing.
  [[nodiscard]] bool running() const noexcept;

  /// The fiber currently executing on this thread, or nullptr when in
  /// scheduler context.
  [[nodiscard]] static Fiber* current() noexcept;

 private:
  struct Impl;
  static void trampoline();

  std::unique_ptr<Impl> impl_;
  std::function<void()> body_;
  bool started_ = false;
  bool finished_ = false;
  std::exception_ptr pending_exception_;
};

}  // namespace mpipred::sim
