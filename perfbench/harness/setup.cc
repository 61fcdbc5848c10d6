#include <algorithm>
#include <functional>

#include "corpus/domain_profile.h"
#include "corpus/generator.h"
#include "harness/workloads.h"
#include "util/random.h"
#include "util/thread_pool.h"

namespace perfbench {

briq::corpus::Corpus GenerateTableL(size_t num_documents, uint64_t seed) {
  // Stratified: each domain gets its share of the documents by largest
  // remainder, in a seeded order. Drawing each document's domain at random
  // (GenerateCorpus) lets the share of slow sports documents, and with it
  // the cost of a run, swing from seed to seed.
  const briq::corpus::CorpusOptions defaults;
  double total_weight = 0.0;
  for (const auto& [domain, weight] : defaults.domain_weights) {
    total_weight += weight;
  }
  std::vector<size_t> counts;
  std::vector<std::pair<double, size_t>> remainders;
  size_t assigned = 0;
  for (const auto& [domain, weight] : defaults.domain_weights) {
    const double share = num_documents * weight / total_weight;
    counts.push_back(static_cast<size_t>(share));
    assigned += counts.back();
    remainders.emplace_back(share - static_cast<double>(counts.back()),
                            counts.size() - 1);
  }
  std::sort(remainders.begin(), remainders.end(), std::greater<>());
  for (size_t i = 0; assigned < num_documents; ++i, ++assigned) {
    ++counts[remainders[i % remainders.size()].second];
  }
  std::vector<const briq::corpus::DomainProfile*> slots;
  for (size_t d = 0; d < counts.size(); ++d) {
    const auto& profile =
        briq::corpus::GetDomainProfile(defaults.domain_weights[d].first);
    slots.insert(slots.end(), counts[d], &profile);
  }
  briq::util::Rng rng(seed);
  for (size_t i = slots.size(); i > 1; --i) {
    std::swap(slots[i - 1], slots[rng.UniformInt(static_cast<uint64_t>(i))]);
  }
  briq::corpus::Corpus corpus;
  for (size_t i = 0; i < slots.size(); ++i) {
    corpus.documents.push_back(briq::corpus::GenerateDocument(
        *slots[i], "doc-" + std::to_string(i), &rng));
  }
  return corpus;
}

std::vector<briq::core::PreparedDocument> PrepareAll(
    const briq::corpus::Corpus& corpus, const briq::core::BriqConfig& config,
    int threads) {
  std::vector<briq::core::PreparedDocument> out(corpus.size());
  briq::util::ParallelFor(threads, 0, corpus.size(), /*grain=*/1,
                          [&](size_t lo, size_t hi) {
                            for (size_t i = lo; i < hi; ++i) {
                              out[i] = briq::core::PrepareDocument(
                                  corpus.documents[i], config);
                            }
                          });
  return out;
}

briq::util::Status TrainSaveLoad(
    const Options& options, const std::string& model_path,
    std::unique_ptr<briq::core::BriqSystem>* out) {
  const briq::corpus::Corpus corpus = GenerateTableL(
      options.train_docs, DeriveSeed(options.seed, kModelTraining));
  const briq::core::BriqConfig config;
  const std::vector<briq::core::PreparedDocument> prepared =
      PrepareAll(corpus, config, options.cpus);
  std::vector<const briq::core::PreparedDocument*> pointers;
  pointers.reserve(prepared.size());
  for (const auto& doc : prepared) pointers.push_back(&doc);
  briq::core::BriqSystem trained(config);
  BRIQ_RETURN_IF_ERROR(trained.Train(pointers));
  BRIQ_RETURN_IF_ERROR(trained.SaveModel(model_path));
  auto loaded = std::make_unique<briq::core::BriqSystem>(config);
  BRIQ_RETURN_IF_ERROR(loaded->LoadModel(model_path));
  *out = std::move(loaded);
  return briq::util::Status::OK();
}

briq::core::EvalResult Evaluate(
    const std::vector<briq::core::PreparedDocument>& docs,
    const std::vector<briq::core::DocumentAlignment>& alignments) {
  briq::core::EvalResult total;
  for (size_t i = 0; i < docs.size(); ++i) {
    total.Merge(briq::core::EvaluateDocument(docs[i], alignments[i]));
  }
  return total;
}

}  // namespace perfbench
