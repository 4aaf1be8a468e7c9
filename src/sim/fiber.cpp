// glibc's fortified longjmp (__longjmp_chk) rejects any jump to a deeper
// stack address, which is what every switch onto a fiber's own stack looks
// like. The checked variant is selected when <setjmp.h> is first seen, so
// this must precede every include.
#undef _FORTIFY_SOURCE

#include "sim/fiber.hpp"

#include <setjmp.h>
#include <ucontext.h>

#include <cstddef>
#include <vector>

#include "common/assert.hpp"
#include "common/error.hpp"

#if defined(__SANITIZE_ADDRESS__)
#define MPIPRED_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MPIPRED_FIBER_ASAN 1
#endif
#endif

#if defined(__SANITIZE_THREAD__)
#define MPIPRED_FIBER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define MPIPRED_FIBER_TSAN 1
#endif
#endif

#if defined(MPIPRED_FIBER_ASAN)
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(MPIPRED_FIBER_TSAN)
#include <sanitizer/tsan_interface.h>
#endif

namespace mpipred::sim {

namespace {
/// Stack size of every fiber: each simulated rank runs on one.
constexpr std::size_t kFiberStackBytes = 256 * 1024;
static_assert(kFiberStackBytes >= 16 * 1024, "fiber stack must be at least 16 KiB");

/// The fiber currently executing on this thread (nullptr in scheduler
/// context). thread_local so independent simulations may run on different
/// threads (e.g. parallel gtest shards within one binary).
thread_local Fiber* g_current_fiber = nullptr;

/// Thrown out of yield() into a fiber that is being unwound. Not derived
/// from std::exception, so only a catch (...) in the body can intercept it;
/// the trampoline swallows it.
struct Unwind {};
}  // namespace

/// Switches run on _setjmp/_longjmp, which save and restore registers and
/// make no signal-mask syscall. A ucontext is used once per fiber, to enter
/// its stack.
struct Fiber::Impl {
  jmp_buf fiber_ctx;      // where the suspended fiber continues (saved by yield)
  jmp_buf scheduler_ctx;  // where resume() continues (saved by resume)
  ucontext_t entry_ctx;   // the trampoline on a fresh stack, for the first resume
  std::vector<unsigned char> stack;
  bool unwinding = false;
#if defined(MPIPRED_FIBER_ASAN)
  void* scheduler_fake_stack = nullptr;
  void* fiber_fake_stack = nullptr;
  const void* scheduler_stack_bottom = nullptr;
  std::size_t scheduler_stack_size = 0;
#endif
#if defined(MPIPRED_FIBER_TSAN)
  void* tsan_fiber = __tsan_create_fiber(0);
  void* tsan_scheduler = nullptr;

  ~Impl() { __tsan_destroy_fiber(tsan_fiber); }
#endif

  // Sanitizer bookkeeping around each jump; empty without a sanitizer.
  // ASan learns the destination stack before a jump and the departed one
  // after it; TSan keeps one shadow thread per fiber.
  void leaving_scheduler() {
#if defined(MPIPRED_FIBER_ASAN)
    __sanitizer_start_switch_fiber(&scheduler_fake_stack, stack.data(), stack.size());
#endif
#if defined(MPIPRED_FIBER_TSAN)
    tsan_scheduler = __tsan_get_current_fiber();
    __tsan_switch_to_fiber(tsan_fiber, 0);
#endif
  }

  void entered_scheduler() {
#if defined(MPIPRED_FIBER_ASAN)
    __sanitizer_finish_switch_fiber(scheduler_fake_stack, nullptr, nullptr);
#endif
  }

  // A finished fiber never comes back, so ASan may free its fake stack.
  void leaving_fiber([[maybe_unused]] bool finished) {
#if defined(MPIPRED_FIBER_ASAN)
    __sanitizer_start_switch_fiber(finished ? nullptr : &fiber_fake_stack, scheduler_stack_bottom,
                                   scheduler_stack_size);
#endif
#if defined(MPIPRED_FIBER_TSAN)
    __tsan_switch_to_fiber(tsan_scheduler, 0);
#endif
  }

  void entered_fiber() {
#if defined(MPIPRED_FIBER_ASAN)
    __sanitizer_finish_switch_fiber(fiber_fake_stack, &scheduler_stack_bottom,
                                    &scheduler_stack_size);
#endif
  }
};

Fiber::Fiber(std::function<void()> body)
    : impl_(std::make_unique<Impl>()), body_(std::move(body)) {
  MPIPRED_REQUIRE(body_ != nullptr, "fiber body must be callable");
  impl_->stack.resize(kFiberStackBytes);
}

Fiber::~Fiber() { unwind(); }

bool Fiber::running() const noexcept { return g_current_fiber == this; }

Fiber* Fiber::current() noexcept { return g_current_fiber; }

void Fiber::trampoline() {
  Fiber* self = g_current_fiber;
  Impl& impl = *self->impl_;
  impl.entered_fiber();
  try {
    self->body_();
  } catch (const Unwind&) {
    // unwind() asked for this: every frame of the body has been destroyed.
  } catch (...) {
    self->pending_exception_ = std::current_exception();
  }
  self->finished_ = true;
  impl.leaving_fiber(/*finished=*/true);
  _longjmp(impl.scheduler_ctx, 1);
}

void Fiber::resume() {
  MPIPRED_REQUIRE(g_current_fiber == nullptr, "resume() must be called from scheduler context");
  MPIPRED_REQUIRE(!finished_, "cannot resume a finished fiber");
  Impl& impl = *impl_;

  if (!started_) {
    if (getcontext(&impl.entry_ctx) != 0) {
      throw Error("getcontext failed");
    }
    impl.entry_ctx.uc_stack.ss_sp = impl.stack.data();
    impl.entry_ctx.uc_stack.ss_size = impl.stack.size();
    impl.entry_ctx.uc_link = nullptr;  // the trampoline never returns
    makecontext(&impl.entry_ctx, reinterpret_cast<void (*)()>(&Fiber::trampoline), 0);
  }

  g_current_fiber = this;
  if (_setjmp(impl.scheduler_ctx) == 0) {
    impl.leaving_scheduler();
    if (started_) {
      _longjmp(impl.fiber_ctx, 1);
    }
    started_ = true;
    setcontext(&impl.entry_ctx);  // returns only if the jump failed
    g_current_fiber = nullptr;
    throw Error("setcontext into a new fiber failed");
  }
  impl.entered_scheduler();
  g_current_fiber = nullptr;

  if (pending_exception_) {
    std::exception_ptr ex = pending_exception_;
    pending_exception_ = nullptr;
    std::rethrow_exception(ex);
  }
}

void Fiber::yield() {
  Fiber* self = g_current_fiber;
  MPIPRED_REQUIRE(self != nullptr, "yield() must be called from inside a fiber");
  Impl& impl = *self->impl_;
  if (impl.unwinding) {
    throw Unwind{};  // a frame tried to suspend again while being unwound
  }
  g_current_fiber = nullptr;
  if (_setjmp(impl.fiber_ctx) == 0) {
    impl.leaving_fiber(/*finished=*/false);
    _longjmp(impl.scheduler_ctx, 1);
  }
  impl.entered_fiber();
  // resume() restored g_current_fiber before jumping back here.
  if (impl.unwinding) {
    throw Unwind{};
  }
}

void Fiber::unwind() noexcept {
  if (!started_ || finished_ || g_current_fiber != nullptr) {
    return;
  }
  impl_->unwinding = true;
  try {
    resume();
  } catch (...) {
    // An exception raised while the frames were torn down has no one to
    // report to: the run it belonged to is already over.
  }
}

}  // namespace mpipred::sim
