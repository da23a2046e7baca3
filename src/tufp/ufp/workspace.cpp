#include "tufp/ufp/workspace.hpp"

#include "tufp/ufp/detail/workspace_access.hpp"

namespace tufp {

UfpWorkspace::UfpWorkspace(const ResidualGraph& graph, int num_threads,
                           SpKernel kernel)
    : impl_(std::make_unique<Impl>(graph, num_threads, kernel)) {}

UfpWorkspace::~UfpWorkspace() = default;

UfpWorkspace::UfpWorkspace(UfpWorkspace&&) noexcept = default;

UfpWorkspace& UfpWorkspace::operator=(UfpWorkspace&&) noexcept = default;

void UfpWorkspace::clear() {
  impl_ = std::make_unique<Impl>(*impl_->graph, impl_->num_threads,
                                 impl_->kernel);
}

UfpWorkspace::ReclaimRevalidation UfpWorkspace::revalidate_warm_trees(
    std::span<const EdgeId> reclaimed, std::int64_t clock_after) {
  const SourceTreeCache::ReclaimRevalidation r =
      impl_->trees.revalidate_after_reclaim(impl_->graph->base(), reclaimed,
                                            clock_after);
  return {r.kept, r.dropped};
}

}  // namespace tufp
