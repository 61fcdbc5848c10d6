// The three benchmark workloads and the set-up steps they share.

#ifndef PERFBENCH_HARNESS_WORKLOADS_H_
#define PERFBENCH_HARNESS_WORKLOADS_H_

#include <memory>
#include <string>
#include <vector>

#include "core/evaluation.h"
#include "core/pipeline.h"
#include "corpus/document.h"
#include "harness/common.h"
#include "util/status.h"

namespace perfbench {

/// Seed roles: each generated input draws from its own stream.
enum SeedRole : uint64_t {
  kAlignCorpus = 1,
  kModelTraining = 2,
  kTrainCorpus = 3,
  kHeldOut = 4,
  kServeBodies = 5,
  kServeOrder = 6,
};

/// Documents per briq-shard-v1 shard of the streamed corpora.
constexpr size_t kShardSize = 32;

/// A tableL-mix corpus: CorpusOptions' default domain weights, applied as
/// exact per-domain document counts.
briq::corpus::Corpus GenerateTableL(size_t num_documents, uint64_t seed);

/// Prepares every document over `threads` workers, in corpus order.
std::vector<briq::core::PreparedDocument> PrepareAll(
    const briq::corpus::Corpus& corpus, const briq::core::BriqConfig& config,
    int threads);

/// Trains a BriQ model on `train_docs` generated documents, saves it to
/// `model_path`, and loads it back into a fresh system, the form the
/// server and the aligners use.
briq::util::Status TrainSaveLoad(const Options& options,
                                 const std::string& model_path,
                                 std::unique_ptr<briq::core::BriqSystem>* out);

/// Alignment quality of `alignments` (positional with `docs`).
briq::core::EvalResult Evaluate(
    const std::vector<briq::core::PreparedDocument>& docs,
    const std::vector<briq::core::DocumentAlignment>& alignments);

/// Each returns a non-OK status when the run could not be set up (no
/// result is printed then); failed output checks are counted in `result`.
briq::util::Status RunAlignStream(const Options& options, Result* result);
briq::util::Status RunServeOpen(const Options& options, Result* result);
briq::util::Status RunTrainStream(const Options& options, Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_WORKLOADS_H_
