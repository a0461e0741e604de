#include "core/incremental.h"

#include "layout/library.h"

#include <stdexcept>
#include <utility>

namespace dfm {

DfmFlowSession::DfmFlowSession(const Library& lib, std::uint32_t top,
                               DfmFlowOptions options)
    : options_(std::move(options)), pool_(options_) {
  caches_ = detail::run_flow(
      report_, options_, pool_.get(), nullptr, {},
      [&]() -> const LayoutSnapshot& {
        // Out-of-core mode hydrates lazily from a copy of the library:
        // the session outlives the caller's reference.
        snap_ = resolved_memory_budget(options_) != 0
                    ? std::make_unique<LayoutSnapshot>(
                          std::make_shared<LibrarySource>(
                              std::make_shared<Library>(lib), top),
                          LayoutSnapshot::standard_flow_layers())
                    : std::make_unique<LayoutSnapshot>(lib, top, pool_.get());
        return *snap_;
      });
}

DfmFlowSession::DfmFlowSession(LayerMap layers, DfmFlowOptions options)
    : options_(std::move(options)), pool_(options_) {
  caches_ = detail::run_flow(
      report_, options_, pool_.get(), nullptr, {},
      [&]() -> const LayoutSnapshot& {
        snap_ = std::make_unique<LayoutSnapshot>(std::move(layers));
        return *snap_;
      });
}

DfmFlowSession::DfmFlowSession(std::shared_ptr<const SnapshotSource> source,
                               DfmFlowOptions options)
    : options_(std::move(options)), pool_(options_) {
  caches_ = detail::run_flow(
      report_, options_, pool_.get(), nullptr, {},
      [&]() -> const LayoutSnapshot& {
        snap_ = std::make_unique<LayoutSnapshot>(
            std::move(source), LayoutSnapshot::standard_flow_layers());
        return *snap_;
      });
}

const DfmFlowReport& DfmFlowSession::apply(const LayoutDelta& delta) {
  // The record of the apply before this one goes first, so the run
  // holds no more state than an unrecorded one would.
  undo_.reset();
  std::unique_ptr<IncrementalSnapshot> next;
  DfmFlowReport rep;
  FlowCaches caches = detail::run_flow(
      rep, options_, pool_.get(), &report_, caches_,
      [&]() -> const LayoutSnapshot& {
        next = std::make_unique<IncrementalSnapshot>(*snap_, delta);
        return *next;
      });
  undo_.emplace(Undo{std::move(snap_), std::move(report_), std::move(caches_)});
  snap_ = std::move(next);
  report_ = std::move(rep);
  caches_ = std::move(caches);
  return report_;
}

void DfmFlowSession::rollback() {
  if (!undo_) {
    throw std::logic_error("DfmFlowSession::rollback: no apply to undo");
  }
  snap_ = std::move(undo_->snap);
  report_ = std::move(undo_->report);
  caches_ = std::move(undo_->caches);
  undo_.reset();
}

}  // namespace dfm
