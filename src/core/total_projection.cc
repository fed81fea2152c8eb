#include "core/total_projection.h"

#include "tableau/lossless.h"

namespace ird {

ExprPtr BuildKeyEquivalentProjectionExpr(const DatabaseScheme& scheme,
                                         const std::vector<size_t>& pool,
                                         const AttributeSet& x) {
  std::vector<size_t> p = scheme.PoolOrAll(pool);
  // Ambient dependencies: the pool's own key dependencies (F_j of the
  // block, or all of F when the pool is all of R).
  std::vector<std::vector<size_t>> subsets = MinimalLosslessSubsetsCovering(
      scheme, p, x, scheme.KeyDependenciesOf(p));
  if (subsets.empty()) return nullptr;
  std::vector<ExprPtr> branches;
  branches.reserve(subsets.size());
  for (const std::vector<size_t>& subset : subsets) {
    std::vector<ExprPtr> bases;
    bases.reserve(subset.size());
    for (size_t i : subset) {
      bases.push_back(Expression::Base(i, scheme.relation(i).attrs));
    }
    branches.push_back(
        Expression::Project(x, Expression::Join(std::move(bases))));
  }
  return Expression::Union(std::move(branches));
}

ExprPtr BuildBoundedProjectionExpr(const DatabaseScheme& scheme,
                                   const RecognitionResult& recognition,
                                   const AttributeSet& x) {
  IRD_CHECK_MSG(recognition.accepted,
                "bounded projection requires an accepted recognition");
  const DatabaseScheme& induced = *recognition.induced;
  std::vector<std::vector<size_t>> d_subsets =
      MinimalLosslessSubsetsCovering(induced, induced.PoolOrAll(), x);
  if (d_subsets.empty()) return nullptr;

  std::vector<ExprPtr> branches;
  for (const std::vector<size_t>& d_subset : d_subsets) {
    // Y_j = D_j ∩ (∪ other D's of the subset ∪ X), Theorem 4.1.
    std::vector<ExprPtr> factors;
    for (size_t j : d_subset) {
      AttributeSet others = x;
      for (size_t j2 : d_subset) {
        if (j2 != j) others.UnionWith(induced.relation(j2).attrs);
      }
      AttributeSet yj = induced.relation(j).attrs.Intersect(others);
      // [Y_j] by the block-level expression (Corollary 3.1(b)). The block
      // itself is lossless and covers Y_j, so this is never null.
      ExprPtr block_expr =
          BuildKeyEquivalentProjectionExpr(scheme, recognition.partition[j],
                                           yj);
      IRD_CHECK(block_expr != nullptr);
      factors.push_back(std::move(block_expr));
    }
    branches.push_back(
        Expression::Project(x, Expression::Join(std::move(factors))));
  }
  return Expression::Union(std::move(branches));
}

Result<PartialRelation> TotalProjection(const DatabaseState& state,
                                        const AttributeSet& x) {
  RecognitionResult recognition =
      RecognizeIndependenceReducible(state.scheme());
  if (!recognition.accepted) {
    return FailedPrecondition(
        "scheme is not independence-reducible: " +
        recognition.violation->ToString(*recognition.induced));
  }
  return TotalProjection(state, recognition, x);
}

PartialRelation TotalProjection(const DatabaseState& state,
                                const RecognitionResult& recognition,
                                const AttributeSet& x) {
  ExprPtr expr = BuildBoundedProjectionExpr(state.scheme(), recognition, x);
  if (expr == nullptr) return PartialRelation(x);
  return Evaluate(*expr, state);
}

}  // namespace ird
