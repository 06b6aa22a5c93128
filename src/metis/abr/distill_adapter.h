// Adapter exposing the ABR environment to Metis' distillation pipeline:
// full DNN state for the teacher, Figure-7 decision variables for the
// student tree, and model-based Q(s,·) lookahead for Eq. 1.
#pragma once

#include <memory>

#include "metis/abr/env.h"
#include "metis/core/teacher.h"

namespace metis::abr {

class AbrRolloutEnv final : public core::RolloutEnv {
 public:
  // Borrows `env` (the caller keeps it alive, e.g. the scenario context).
  explicit AbrRolloutEnv(AbrEnv* env);
  // Owns `env` — how clone() hands each collected episode its own copy.
  explicit AbrRolloutEnv(std::unique_ptr<AbrEnv> env);

  [[nodiscard]] std::size_t action_count() const override;
  std::vector<double> reset(std::size_t episode) override;
  nn::StepResult step(std::size_t action) override;
  [[nodiscard]] std::vector<double> interpretable_features() const override;
  [[nodiscard]] std::vector<core::Lookahead> lookahead() const override;
  [[nodiscard]] std::shared_ptr<core::RolloutEnv> clone() const override;

 private:
  std::unique_ptr<AbrEnv> owned_;  // set iff constructed owning
  AbrEnv* env_;
};

}  // namespace metis::abr
