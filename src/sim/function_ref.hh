/**
 * @file
 * A non-owning reference to a callable, for callees that only call their
 * argument before they return. Unlike std::function it never copies the
 * callable, so a capturing lambda passed down costs no heap allocation,
 * and unlike a template parameter it keeps the callee out of line, so
 * the caller's code does not grow by the callee's body.
 */

#ifndef KVMARM_SIM_FUNCTION_REF_HH
#define KVMARM_SIM_FUNCTION_REF_HH

#include <memory>
#include <type_traits>
#include <utility>

namespace kvmarm {

template <class Sig>
class FunctionRef;

/** Refers to a callable of signature R(Args...); the callable must
 *  outlive every call made through the reference. */
template <class R, class... Args>
class FunctionRef<R(Args...)>
{
  public:
    template <class F>
        requires(!std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
                 std::is_invocable_r_v<R, F &, Args...>)
    FunctionRef(F &&f)
        : obj_(const_cast<void *>(
              static_cast<const void *>(std::addressof(f)))),
          call_([](void *obj, Args... args) -> R {
              return (*static_cast<std::remove_reference_t<F> *>(obj))(
                  std::forward<Args>(args)...);
          })
    {
    }

    R
    operator()(Args... args) const
    {
        return call_(obj_, std::forward<Args>(args)...);
    }

  private:
    void *obj_;
    R (*call_)(void *, Args...);
};

} // namespace kvmarm

#endif // KVMARM_SIM_FUNCTION_REF_HH
