#ifndef LCREC_SERVE_TOY_SYSTEM_H_
#define LCREC_SERVE_TOY_SYSTEM_H_

#include <cstdint>

#include "llm/generate.h"
#include "llm/minillm.h"
#include "quant/indexing.h"
#include "serve/server.h"
#include "text/vocab.h"

namespace lcrec::serve {

/// The tiny deterministic system the serving tools stand up (bench_serve,
/// chaos_probe, debugz_probe, lcrec_worker): an untrained MiniLlm (d=32,
/// ff=64, model seed 3) over a random 48-item, 3-level index. Decode cost
/// does not depend on the weights, so the full serve path runs at
/// CI-friendly speed, and systems built with the same `index_seed` answer
/// bit-identically. Not copyable: the trie and token map point into it.
struct ToySystem {
  explicit ToySystem(uint64_t index_seed);
  ToySystem(const ToySystem&) = delete;
  ToySystem& operator=(const ToySystem&) = delete;

  /// BOS, then each history item folded onto a token (4 + item % (v-4)).
  PromptBuilder Builder() const;

  quant::ItemIndexing indexing;
  text::Vocabulary vocab;
  quant::PrefixTrie trie;
  llm::MiniLlm model;
  llm::IndexTokenMap token_map;
};

}  // namespace lcrec::serve

#endif  // LCREC_SERVE_TOY_SYSTEM_H_
