#include <pmemcpy/sim/context.hpp>

namespace pmemcpy::sim {

const CostModel& default_model() {
  static const CostModel model{};
  return model;
}

namespace {
thread_local Context* t_current = nullptr;
}  // namespace

Context& default_context() noexcept {
  thread_local Context c{default_model(), 1, 0};
  return c;
}

Context& ctx() noexcept {
  return t_current != nullptr ? *t_current : default_context();
}

ScopedContext::ScopedContext(Context& c) noexcept : prev_(t_current) {
  t_current = &c;
}

ScopedContext::~ScopedContext() { t_current = prev_; }

}  // namespace pmemcpy::sim
