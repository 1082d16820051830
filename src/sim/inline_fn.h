// Move-only callable with inline storage, replacing std::function<void()>
// as the simulator's event closure type. Every Schedule used to pay one
// heap allocation just to type-erase its lambda; almost all event closures
// (timer re-arms, transport retransmits, network delivery thunks) fit in a
// few pointers, so InlineFn keeps them inside the event queue's slab slot and
// falls back to the heap only for outsized captures.
//
// Move-only is deliberate: no event closure in the tree is ever copied
// (verified at the call sites), and copyability is what forces
// std::function to heap-allocate shared state for non-trivial captures.

#ifndef REPRO_SRC_SIM_INLINE_FN_H_
#define REPRO_SRC_SIM_INLINE_FN_H_

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace sim {

class InlineFn {
 public:
  // Sized for the fattest hot-path closure: the network's delivery thunk
  // captures a Packet (two node ids, port, shared_ptr payload, header size,
  // packet id) plus the network pointer.
  static constexpr std::size_t kInlineBytes = 64;

  InlineFn() = default;

  template <typename F,
            typename = std::enable_if_t<!std::is_same_v<std::decay_t<F>, InlineFn> &&
                                        std::is_invocable_r_v<void, std::decay_t<F>&>>>
  InlineFn(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for std::function
    using Decayed = std::decay_t<F>;
    if constexpr (sizeof(Decayed) <= kInlineBytes && alignof(Decayed) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Decayed>) {
      ::new (storage_) Decayed(std::forward<F>(f));
      vtable_ = &InlineVTable<Decayed>::table;
    } else {
      ::new (storage_) Decayed*(new Decayed(std::forward<F>(f)));
      vtable_ = &HeapVTable<Decayed>::table;
    }
  }

  InlineFn(InlineFn&& other) noexcept { MoveFrom(std::move(other)); }

  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      Destroy();
      MoveFrom(std::move(other));
    }
    return *this;
  }

  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;

  ~InlineFn() { Destroy(); }

  void operator()() { vtable_->invoke(storage_); }

  explicit operator bool() const { return vtable_ != nullptr; }

 private:
  struct VTable {
    void (*invoke)(void*);
    // Move-construct into dst from src, then destroy src's value.
    void (*relocate)(void* dst, void* src);
    void (*destroy)(void*);
  };

  template <typename F>
  struct InlineVTable {
    static void Invoke(void* p) { (*static_cast<F*>(p))(); }
    static void Relocate(void* dst, void* src) {
      F* from = static_cast<F*>(src);
      ::new (dst) F(std::move(*from));
      from->~F();
    }
    static void Destroy(void* p) { static_cast<F*>(p)->~F(); }
    static constexpr VTable table{&Invoke, &Relocate, &Destroy};
  };

  template <typename F>
  struct HeapVTable {
    static F* Ptr(void* p) { return *static_cast<F**>(p); }
    static void Invoke(void* p) { (*Ptr(p))(); }
    static void Relocate(void* dst, void* src) {
      ::new (dst) F*(Ptr(src));  // steal the heap object; src forgets it
    }
    static void Destroy(void* p) { delete Ptr(p); }
    static constexpr VTable table{&Invoke, &Relocate, &Destroy};
  };

  void MoveFrom(InlineFn&& other) noexcept {
    vtable_ = other.vtable_;
    if (vtable_ != nullptr) {
      vtable_->relocate(storage_, other.storage_);
      other.vtable_ = nullptr;
    }
  }

  void Destroy() noexcept {
    if (vtable_ != nullptr) {
      vtable_->destroy(storage_);
      vtable_ = nullptr;
    }
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  const VTable* vtable_ = nullptr;
};

}  // namespace sim

#endif  // REPRO_SRC_SIM_INLINE_FN_H_
