#include "core/incremental.h"

#include "layout/library.h"

#include <stdexcept>
#include <utility>

namespace dfm {

DfmFlowSession::DfmFlowSession(const Library& lib, std::uint32_t top,
                               DfmFlowOptions options)
    : options_(std::move(options)), pool_(options_) {
  state_.caches = detail::run_flow(
      state_.report, options_, pool_.get(), nullptr, {},
      [&]() -> const LayoutSnapshot& {
        // Out-of-core mode hydrates lazily from a copy of the library:
        // the session outlives the caller's reference.
        state_.snap =
            resolved_memory_budget(options_) != 0
                ? std::make_shared<LayoutSnapshot>(
                      std::make_shared<LibrarySource>(
                          std::make_shared<Library>(lib), top),
                      LayoutSnapshot::standard_flow_layers())
                : std::make_shared<LayoutSnapshot>(lib, top, pool_.get());
        return *state_.snap;
      });
}

DfmFlowSession::DfmFlowSession(LayerMap layers, DfmFlowOptions options)
    : options_(std::move(options)), pool_(options_) {
  state_.caches = detail::run_flow(
      state_.report, options_, pool_.get(), nullptr, {},
      [&]() -> const LayoutSnapshot& {
        state_.snap = std::make_shared<LayoutSnapshot>(std::move(layers));
        return *state_.snap;
      });
}

DfmFlowSession::DfmFlowSession(std::shared_ptr<const SnapshotSource> source,
                               DfmFlowOptions options)
    : options_(std::move(options)), pool_(options_) {
  state_.caches = detail::run_flow(
      state_.report, options_, pool_.get(), nullptr, {},
      [&]() -> const LayoutSnapshot& {
        state_.snap = std::make_shared<LayoutSnapshot>(
            std::move(source), LayoutSnapshot::standard_flow_layers());
        return *state_.snap;
      });
}

const DfmFlowReport& DfmFlowSession::apply(const LayoutDelta& delta) {
  // The record of the apply before this one goes first, so the run
  // holds no more state than an unrecorded one would.
  undo_.reset();
  State next;
  next.caches = detail::run_flow(
      next.report, options_, pool_.get(), &state_.report, state_.caches,
      [&]() -> const LayoutSnapshot& {
        next.snap = std::make_shared<IncrementalSnapshot>(*state_.snap, delta);
        return *next.snap;
      });
  undo_ = std::exchange(state_, std::move(next));
  return state_.report;
}

void DfmFlowSession::rollback() {
  if (!undo_) {
    throw std::logic_error("DfmFlowSession::rollback: no apply to undo");
  }
  state_ = std::move(*undo_);
  undo_.reset();
}

}  // namespace dfm
