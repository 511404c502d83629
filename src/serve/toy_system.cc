#include "serve/toy_system.h"

#include <string>
#include <vector>

#include "core/rng.h"

namespace lcrec::serve {

namespace {

quant::ItemIndexing ToyIndexing(uint64_t seed) {
  core::Rng rng(seed);
  return quant::ItemIndexing::Random(/*items=*/48, /*levels=*/3,
                                     /*codes=*/6, rng);
}

text::Vocabulary ToyVocab(const quant::ItemIndexing& indexing) {
  text::Vocabulary vocab;
  for (const std::string& tok : indexing.AllTokenStrings()) {
    vocab.AddToken(tok);
  }
  return vocab;
}

llm::MiniLlmConfig ToyConfig(int vocab_size) {
  llm::MiniLlmConfig cfg;
  cfg.vocab_size = vocab_size;
  cfg.d_model = 32;
  cfg.n_heads = 4;
  cfg.n_layers = 2;
  cfg.d_ff = 64;
  cfg.max_seq = 64;
  cfg.seed = 3;
  return cfg;
}

}  // namespace

ToySystem::ToySystem(uint64_t index_seed)
    : indexing(ToyIndexing(index_seed)),
      vocab(ToyVocab(indexing)),
      trie(indexing),
      model(ToyConfig(vocab.size())),
      token_map(indexing, vocab) {}

PromptBuilder ToySystem::Builder() const {
  int v = vocab.size();
  return [v](const std::vector<int>& history) {
    std::vector<int> prompt = {text::Vocabulary::kBos};
    for (int item : history) prompt.push_back(4 + (item % (v - 4)));
    return prompt;
  };
}

}  // namespace lcrec::serve
