#include "definability/krem_definability.h"

#include <algorithm>
#include <cstring>
#include <optional>
#include <vector>

#include "analysis/plan/kernel_dispatch.h"
#include "analysis/plan/plan_metrics.h"
#include "common/failpoint.h"
#include "obs/trace.h"

namespace gqd {

namespace {

GQD_FAILPOINT_DEFINE(fp_krem_arena_grow, "krem.arena.grow");

// The BFS works on macro tuples ⟨Q_1, ..., Q_n⟩, each stored as one run of
// words in a flat arena. Two layouts share the arena and its interner: the
// dense layout is n consecutive packed state sets of `set_words` words each
// (a fixed-length run), the sparse layout a sorted list of packed
// (node index, state) entries (a variable-length run). The interner probes
// by stored hash + index instead of keeping a second copy of the words as a
// map key.

inline void OrWords(std::uint64_t* dst, const std::uint64_t* src,
                    std::size_t count) {
  for (std::size_t i = 0; i < count; i++) {
    dst[i] |= src[i];
  }
}

std::uint64_t HashTupleWords(const std::uint64_t* words, std::size_t count) {
  std::size_t seed = count;
  for (std::size_t i = 0; i < count; i++) {
    seed = HashCombine(seed,
                       static_cast<std::size_t>(words[i] *
                                                0xff51afd7ed558ccdULL));
  }
  return seed;
}

/// Packs sparse entry (i, state): sorting these u64s sorts by node index
/// first, then state — exactly the row-major order of the dense bitset.
inline std::uint64_t PackEntry(std::size_t i, AgState state) {
  return (static_cast<std::uint64_t>(i) << 32) | state;
}

/// Flat arena of tuple runs with an open-addressed interner. With
/// `fixed_words` > 0 every run has that length and tuple `t` lives at
/// [t·fixed_words, (t+1)·fixed_words); with 0 runs are variable-length and
/// an offsets array delimits them. The probe table holds only
/// (hash, index) — the words are never duplicated into a key. Each tuple is
/// charged exactly what it allocates: its words, its hash, and its offset
/// when runs are variable-length.
class TupleStore {
 public:
  TupleStore(std::size_t fixed_words, const ResourceBudget* budget)
      : fixed_words_(fixed_words), slots_(64, 0), budget_(budget) {
    if (budget_ != nullptr) {
      budget_->ChargeBytes(
          static_cast<std::int64_t>(slots_.size() * sizeof(std::size_t)));
    }
  }

  std::size_t size() const { return count_; }

  /// True once an injected fault (failpoint krem.arena.grow) hit a growth
  /// path; the BFS surfaces it at the next frontier boundary. The store
  /// itself stays consistent — the probe table just stops growing.
  bool fault() const { return fault_; }

  /// Pointers returned by RunAt are invalidated by an inserting Intern.
  const std::uint64_t* RunAt(std::size_t index) const {
    return words_.data() +
           (fixed_words_ != 0 ? index * fixed_words_ : offsets_[index]);
  }
  std::size_t LengthAt(std::size_t index) const {
    return fixed_words_ != 0 ? fixed_words_
                             : offsets_[index + 1] - offsets_[index];
  }

  /// Returns the index of the tuple equal to `words` (`count` long),
  /// interning a copy first when absent (*inserted reports which).
  std::size_t Intern(const std::uint64_t* words, std::size_t count,
                     std::uint64_t hash, bool* inserted) {
    std::size_t mask = slots_.size() - 1;
    std::size_t pos = static_cast<std::size_t>(hash) & mask;
    while (slots_[pos] != 0) {
      std::size_t index = slots_[pos] - 1;
      if (hashes_[index] == hash && LengthAt(index) == count &&
          std::memcmp(RunAt(index), words, count * sizeof(std::uint64_t)) ==
              0) {
        *inserted = false;
        return index;
      }
      pos = (pos + 1) & mask;
    }
    std::size_t index = count_++;
    words_.insert(words_.end(), words, words + count);
    std::size_t overhead_words = 1;  // the stored hash
    if (fixed_words_ == 0) {
      offsets_.push_back(words_.size());
      overhead_words++;
    }
    hashes_.push_back(hash);
    slots_[pos] = index + 1;
    if (budget_ != nullptr) {
      budget_->ChargeBytes(static_cast<std::int64_t>(
          (count + overhead_words) * sizeof(std::uint64_t)));
      budget_->ChargeTuples(1);
    }
    if ((count_ + 1) * 4 > slots_.size() * 3) {
      Grow();
    }
    *inserted = true;
    return index;
  }

 private:
  void Grow() {
    if (GQD_FAILPOINT_FIRED(fp_krem_arena_grow)) {
      fault_ = true;
      return;
    }
    std::vector<std::size_t> bigger(slots_.size() * 2, 0);
    if (budget_ != nullptr) {
      budget_->ChargeBytes(static_cast<std::int64_t>(
          (bigger.size() - slots_.size()) * sizeof(std::size_t)));
    }
    std::size_t mask = bigger.size() - 1;
    for (std::size_t index = 0; index < count_; index++) {
      std::size_t pos = static_cast<std::size_t>(hashes_[index]) & mask;
      while (bigger[pos] != 0) {
        pos = (pos + 1) & mask;
      }
      bigger[pos] = index + 1;
    }
    slots_.swap(bigger);
  }

  std::size_t fixed_words_;
  std::vector<std::uint64_t> words_;
  std::vector<std::size_t> offsets_{0};  ///< variable runs only
  std::vector<std::uint64_t> hashes_;
  std::vector<std::size_t> slots_;  ///< index+1, 0 = empty; pow-2 size
  std::size_t count_ = 0;
  const ResourceBudget* budget_;
  bool fault_ = false;
};

/// One candidate successor tuple of the current head under one block label:
/// the condition (minterm subset), the tuple's hash, and its run's
/// [offset, offset+count) in the owning scratch arena.
struct Candidate {
  MintermMask condition;
  std::uint64_t hash;
  std::size_t offset;
  std::size_t count;
};

/// Reusable per-(store set, letter) workspace, one per search; nothing
/// inside the per-head loops allocates once it warms up.
struct BlockScratch {
  std::vector<std::uint64_t> parts;    ///< n × patterns × set_words
  std::vector<std::uint64_t> stack;    ///< DFS save buffers, one per depth
  std::vector<std::uint64_t> current;  ///< running union, tuple_words
  std::vector<std::uint8_t> achieved;  ///< patterns achieved by any part
  std::vector<Candidate> candidates;   ///< emitted in canonical order
  std::vector<std::uint64_t> arena;    ///< candidate tuple words
  std::uint8_t included[16];           ///< reference-engine DFS include path
  std::size_t included_count = 0;
  bool expired = false;
  std::uint32_t ticks = 0;
  /// Planned engine only: the word window [begin, end) pattern p's parts
  /// can occupy (from its TransitionPlan), so the subset-DFS save/OR/
  /// restore touches only words that can change.
  std::uint32_t span_begin[16] = {};
  std::uint32_t span_end[16] = {};
  /// Planned engine only: specialized inner-loop executions by class,
  /// accumulated per search and flushed once (RecordPlanKernelHits).
  std::uint64_t class_hits[kNumKernelClasses] = {};
};

/// Successor generation for one (store set, letter) block of one head
/// tuple. Pure function of the head tuple — interning state is never read.
class SuccessorGenerator {
 public:
  /// Runs the planned engine when `table` is enabled, else the reference
  /// shape. Both compute identical successor bits.
  SuccessorGenerator(const AssignmentGraph& ag, std::size_t n,
                     const KernelDispatchTable& table,
                     const CancelToken* cancel)
      : ag_(ag),
        table_(&table),
        n_(n),
        num_patterns_(ag.num_patterns()),
        set_words_((ag.num_states() + 63) / 64),
        tuple_words_(n * set_words_),
        engine_(table.enabled() ? KRemEngine::kPlanned
                                : KRemEngine::kReference),
        cancel_(cancel) {}

  std::size_t set_words() const { return set_words_; }
  std::size_t tuple_words() const { return tuple_words_; }

  void InitScratch(BlockScratch* s) const {
    s->parts.assign(n_ * num_patterns_ * set_words_, 0);
    s->stack.assign(num_patterns_ * tuple_words_, 0);
    s->current.assign(tuple_words_, 0);
    s->achieved.reserve(num_patterns_);
    s->candidates.reserve(16);
  }

  /// Emits, into `s`, every (condition, successor tuple) of `tuple` under
  /// (store_mask, label), in the canonical subset-DFS order shared by both
  /// engines. Sets s->expired (and stops early) if the token expires.
  void Generate(const std::uint64_t* tuple, std::uint32_t store_mask,
                LabelId label, BlockScratch* s) const {
    s->candidates.clear();
    s->arena.clear();
    s->achieved.clear();
    s->expired = false;
    std::fill(s->parts.begin(), s->parts.end(), 0);
    std::uint32_t achieved_mask =
        engine_ == KRemEngine::kPlanned
            ? FillPartsPlanned(tuple, store_mask, label, s)
            : FillPartsReference(tuple, store_mask, label, s);
    if (s->expired || achieved_mask == 0) {
      return;
    }
    for (std::uint32_t p = 0; p < num_patterns_; p++) {
      if (achieved_mask & (1u << p)) {
        s->achieved.push_back(static_cast<std::uint8_t>(p));
        if (engine_ == KRemEngine::kPlanned) {
          const TransitionPlan& plan = table_->PlanFor(store_mask, label, p);
          s->span_begin[p] = plan.tgt_begin_word;
          s->span_end[p] = plan.tgt_end_word;
        }
      }
    }
    std::fill(s->current.begin(), s->current.end(), 0);
    s->included_count = 0;
    EnumerateSubsets(0, 0, s);
  }

 private:
  /// Specialized per-transition kernels: one TransitionPlan per pattern
  /// picks the inner loop, and every loop scans only Q ∧ source-mask over
  /// the plan's source word span. Produces bit-identical parts and achieved
  /// mask to the reference engine — p is achieved iff some state of some Q_i
  /// has a pattern-p edge, i.e. iff Q_i intersects the source mask.
  std::uint32_t FillPartsPlanned(const std::uint64_t* tuple,
                                 std::uint32_t store_mask, LabelId label,
                                 BlockScratch* s) const {
    std::uint32_t achieved_mask = 0;
    for (std::uint32_t p = 0; p < num_patterns_; p++) {
      const TransitionPlan& plan = table_->PlanFor(store_mask, label, p);
      if (plan.cls == TransitionKernelClass::kNoOp) {
        continue;
      }
      const std::uint64_t* src_mask = table_->SourceMask(plan);
      bool hit = false;
      for (std::size_t i = 0; i < n_; i++) {
        if (GQD_CANCEL_STRIDE_CHECK(cancel_, s->ticks)) {
          s->expired = true;
          return achieved_mask;
        }
        const std::uint64_t* q = tuple + i * set_words_;
        std::uint64_t* part =
            s->parts.data() + (i * num_patterns_ + p) * set_words_;
        switch (plan.cls) {
          case TransitionKernelClass::kIdentity:
            // The source mask is the transition image: part |= Q ∧ mask.
            for (std::uint32_t w = plan.src_begin_word; w < plan.src_end_word;
                 w++) {
              std::uint64_t live = q[w] & src_mask[w];
              part[w] |= live;
              hit = hit || live != 0;
            }
            break;
          case TransitionKernelClass::kSingleBit: {
            const std::uint32_t* targets = table_->SingleTargets(plan);
            for (std::uint32_t w = plan.src_begin_word; w < plan.src_end_word;
                 w++) {
              std::uint64_t bits = q[w] & src_mask[w];
              hit = hit || bits != 0;
              while (bits != 0) {
                std::size_t state =
                    (static_cast<std::size_t>(w) << 6) +
                    static_cast<std::size_t>(__builtin_ctzll(bits));
                bits &= bits - 1;
                std::uint32_t t = targets[state];
                part[t >> 6] |= std::uint64_t{1} << (t & 63);
              }
            }
            break;
          }
          case TransitionKernelClass::kSparse: {
            const std::uint32_t* offsets = table_->CsrOffsets(plan);
            const std::uint32_t* tgts = table_->CsrTargets();
            for (std::uint32_t w = plan.src_begin_word; w < plan.src_end_word;
                 w++) {
              std::uint64_t bits = q[w] & src_mask[w];
              hit = hit || bits != 0;
              while (bits != 0) {
                std::size_t state =
                    (static_cast<std::size_t>(w) << 6) +
                    static_cast<std::size_t>(__builtin_ctzll(bits));
                bits &= bits - 1;
                for (std::uint32_t at = offsets[state];
                     at < offsets[state + 1]; at++) {
                  std::uint32_t t = tgts[at];
                  part[t >> 6] |= std::uint64_t{1} << (t & 63);
                }
              }
            }
            break;
          }
          default: {  // kDense: packed kernel rows over the target span
            std::size_t span = plan.tgt_end_word - plan.tgt_begin_word;
            for (std::uint32_t w = plan.src_begin_word; w < plan.src_end_word;
                 w++) {
              std::uint64_t bits = q[w] & src_mask[w];
              hit = hit || bits != 0;
              while (bits != 0) {
                AgState state = static_cast<AgState>(
                    (static_cast<std::size_t>(w) << 6) +
                    static_cast<std::size_t>(__builtin_ctzll(bits)));
                bits &= bits - 1;
                OrWords(part + plan.tgt_begin_word,
                        ag_.KernelRow(store_mask, label, p, state) +
                            plan.tgt_begin_word,
                        span);
              }
            }
            break;
          }
        }
      }
      if (hit) {
        achieved_mask |= 1u << p;
        s->class_hits[static_cast<std::size_t>(plan.cls)]++;
      }
    }
    return achieved_mask;
  }

  /// Reference shape: walk the successor lists one edge at a time.
  std::uint32_t FillPartsReference(const std::uint64_t* tuple,
                                   std::uint32_t store_mask, LabelId label,
                                   BlockScratch* s) const {
    std::uint32_t achieved_mask = 0;
    for (std::size_t i = 0; i < n_; i++) {
      const std::uint64_t* q = tuple + i * set_words_;
      std::uint64_t* parts_i = s->parts.data() + i * num_patterns_ * set_words_;
      for (std::size_t w = 0; w < set_words_; w++) {
        std::uint64_t bits = q[w];
        while (bits != 0) {
          AgState state = static_cast<AgState>(
              (w << 6) + static_cast<std::size_t>(__builtin_ctzll(bits)));
          bits &= bits - 1;
          if (GQD_CANCEL_STRIDE_CHECK(cancel_, s->ticks)) {
            s->expired = true;
            return achieved_mask;
          }
          for (const auto& successor :
               ag_.SuccessorsOf(store_mask, label, state)) {
            parts_i[successor.pattern * set_words_ +
                    (successor.state >> 6)] |=
                std::uint64_t{1} << (successor.state & 63);
            achieved_mask |= 1u << successor.pattern;
          }
        }
      }
    }
    return achieved_mask;
  }

  /// Enumerates the non-empty subsets of s->achieved in exclude-first DFS
  /// order — the canonical order both engines share. The planned engine
  /// maintains the running union incrementally: entering the include branch
  /// costs one OR pass from the parent subset, and the parent's value is
  /// saved to a per-depth buffer and rolled back afterwards (the Gray-code
  /// style walk of the subset lattice; no allocation, no recompute). The
  /// save/OR/restore is clipped to the word window the pattern's parts can
  /// occupy (the plan's target span): words outside it never change, so
  /// restoring only the window restores the whole union. The reference
  /// engine rebuilds each leaf's union from its included parts.
  void EnumerateSubsets(std::size_t depth, MintermMask condition,
                        BlockScratch* s) const {
    if (s->expired) {
      return;
    }
    if (depth == s->achieved.size()) {
      if (condition != 0) {
        Emit(condition, s);
      }
      return;
    }
    EnumerateSubsets(depth + 1, condition, s);  // exclude achieved[depth]
    std::uint8_t pattern = s->achieved[depth];
    if (engine_ == KRemEngine::kPlanned) {
      std::uint32_t begin = s->span_begin[pattern];
      std::size_t span = s->span_end[pattern] - begin;
      std::uint64_t* save = s->stack.data() + depth * tuple_words_;
      for (std::size_t i = 0; i < n_; i++) {
        std::memcpy(save + i * set_words_ + begin,
                    s->current.data() + i * set_words_ + begin,
                    span * sizeof(std::uint64_t));
        OrWords(s->current.data() + i * set_words_ + begin,
                s->parts.data() +
                    (i * num_patterns_ + pattern) * set_words_ + begin,
                span);
      }
      EnumerateSubsets(depth + 1,
                       condition | (MintermMask{1} << pattern), s);
      for (std::size_t i = 0; i < n_; i++) {
        std::memcpy(s->current.data() + i * set_words_ + begin,
                    save + i * set_words_ + begin,
                    span * sizeof(std::uint64_t));
      }
    } else {
      s->included[s->included_count++] = pattern;
      EnumerateSubsets(depth + 1,
                       condition | (MintermMask{1} << pattern), s);
      s->included_count--;
    }
  }

  void Emit(MintermMask condition, BlockScratch* s) const {
    if (GQD_CANCEL_STRIDE_CHECK(cancel_, s->ticks)) {
      s->expired = true;
      return;
    }
    if (engine_ == KRemEngine::kReference) {
      // From-scratch union of the included pattern parts.
      std::fill(s->current.begin(), s->current.end(), 0);
      for (std::size_t j = 0; j < s->included_count; j++) {
        std::uint8_t pattern = s->included[j];
        for (std::size_t i = 0; i < n_; i++) {
          OrWords(s->current.data() + i * set_words_,
                  s->parts.data() +
                      (i * num_patterns_ + pattern) * set_words_,
                  set_words_);
        }
      }
    }
    std::size_t offset = s->arena.size();
    s->arena.insert(s->arena.end(), s->current.begin(), s->current.end());
    s->candidates.push_back(
        Candidate{condition, HashTupleWords(s->current.data(), tuple_words_),
                  offset, tuple_words_});
  }

  const AssignmentGraph& ag_;
  const KernelDispatchTable* table_;
  std::size_t n_;
  std::size_t num_patterns_;
  std::size_t set_words_;
  std::size_t tuple_words_;
  KRemEngine engine_;
  const CancelToken* cancel_;
};

// --- Sparse successor generation ------------------------------------------
//
// At k = 0 a dense macro tuple is n·⌈n/64⌉ words — 125 GB at a million
// nodes. The sparse layout keeps each tuple as a sorted list of packed
// (node index, state) entries: memory proportional to the states actually
// live in the frontier. Interning is semantic (two tuples are equal iff
// their entry *sets* are) and the subset DFS runs in the same exclude-first
// canonical order, so verdicts, witnesses and tuples_explored are
// bit-identical to the dense layout on any input both can afford.

/// Reusable workspace for sparse successor generation; nothing inside the
/// per-head loops allocates once the vectors warm up.
struct SparseBlockScratch {
  std::vector<std::vector<std::uint64_t>> parts;  ///< per pattern, sorted
  std::vector<std::uint8_t> achieved;  ///< patterns with non-empty parts
  std::vector<std::uint64_t> merged;   ///< Emit's union buffer
  std::vector<Candidate> candidates;   ///< emitted in canonical order
  std::vector<std::uint64_t> arena;    ///< candidate tuple entries
  std::uint8_t included[16];           ///< DFS include path
  std::size_t included_count = 0;
  bool expired = false;
  std::uint32_t ticks = 0;
};

/// Sparse successor generation for one (store set, letter) block: walk
/// SuccessorsOf for every live entry (the reference shape), bucket by
/// pattern, then enumerate condition subsets in the same exclude-first DFS
/// order as SuccessorGenerator.
class SparseSuccessorGenerator {
 public:
  SparseSuccessorGenerator(const AssignmentGraph& ag,
                           const CancelToken* cancel)
      : ag_(ag), num_patterns_(ag.num_patterns()), cancel_(cancel) {}

  void InitScratch(SparseBlockScratch* s) const {
    s->parts.resize(num_patterns_);
    s->candidates.reserve(16);
  }

  void Generate(const std::uint64_t* entries, std::size_t count,
                std::uint32_t store_mask, LabelId label,
                SparseBlockScratch* s) const {
    s->candidates.clear();
    s->arena.clear();
    s->achieved.clear();
    s->expired = false;
    for (auto& part : s->parts) {
      part.clear();
    }
    for (std::size_t e = 0; e < count; e++) {
      if (GQD_CANCEL_STRIDE_CHECK(cancel_, s->ticks)) {
        s->expired = true;
        return;
      }
      std::size_t i = static_cast<std::size_t>(entries[e] >> 32);
      AgState state = static_cast<AgState>(entries[e]);
      for (const auto& successor :
           ag_.SuccessorsOf(store_mask, label, state)) {
        s->parts[successor.pattern].push_back(
            PackEntry(i, successor.state));
      }
    }
    for (std::uint32_t p = 0; p < num_patterns_; p++) {
      std::vector<std::uint64_t>& part = s->parts[p];
      if (part.empty()) {
        continue;
      }
      std::sort(part.begin(), part.end());
      part.erase(std::unique(part.begin(), part.end()), part.end());
      s->achieved.push_back(static_cast<std::uint8_t>(p));
    }
    if (s->achieved.empty()) {
      return;
    }
    s->included_count = 0;
    EnumerateSubsets(0, 0, s);
  }

 private:
  void EnumerateSubsets(std::size_t depth, MintermMask condition,
                        SparseBlockScratch* s) const {
    if (s->expired) {
      return;
    }
    if (depth == s->achieved.size()) {
      if (condition != 0) {
        Emit(condition, s);
      }
      return;
    }
    EnumerateSubsets(depth + 1, condition, s);  // exclude achieved[depth]
    std::uint8_t pattern = s->achieved[depth];
    s->included[s->included_count++] = pattern;
    EnumerateSubsets(depth + 1, condition | (MintermMask{1} << pattern), s);
    s->included_count--;
  }

  void Emit(MintermMask condition, SparseBlockScratch* s) const {
    if (GQD_CANCEL_STRIDE_CHECK(cancel_, s->ticks)) {
      s->expired = true;
      return;
    }
    // From-scratch union of the included pattern parts: concatenate the
    // sorted lists, re-sort, dedup — the sets match the dense Emit's ORs.
    s->merged.clear();
    for (std::size_t j = 0; j < s->included_count; j++) {
      const std::vector<std::uint64_t>& part = s->parts[s->included[j]];
      s->merged.insert(s->merged.end(), part.begin(), part.end());
    }
    std::sort(s->merged.begin(), s->merged.end());
    s->merged.erase(std::unique(s->merged.begin(), s->merged.end()),
                    s->merged.end());
    std::size_t offset = s->arena.size();
    s->arena.insert(s->arena.end(), s->merged.begin(), s->merged.end());
    s->candidates.push_back(Candidate{
        condition, HashTupleWords(s->merged.data(), s->merged.size()),
        offset, s->merged.size()});
  }

  const AssignmentGraph& ag_;
  std::size_t num_patterns_;
  const CancelToken* cancel_;
};

// --- Tuple layouts ---------------------------------------------------------
//
// What the two layouts differ in: the initial tuple, successor
// generation, and the walk over a tuple's (node index, state) entries that
// safety and acceptance run on. Everything else is the shared BFS driver.

/// Dense layout: n packed state sets of set_words words each, one
/// fixed-length run per tuple. Successors come from SuccessorGenerator —
/// the planned engine when the query-plan dispatch table builds, else the
/// reference shape.
class DenseTuples {
 public:
  DenseTuples(const AssignmentGraph& ag, std::size_t n,
              const KRemDefinabilityOptions& options)
      : ag_(ag),
        n_(n),
        // Built only for the planned engine; it stays disabled when it
        // declines over its memory budget.
        dispatch_(options.engine == KRemEngine::kPlanned
                      ? KernelDispatchTable::Build(ag)
                      : KernelDispatchTable()),
        generator_(ag, n, dispatch_, options.cancel) {
    generator_.InitScratch(&scratch_);
  }
  DenseTuples(const DenseTuples&) = delete;
  DenseTuples& operator=(const DenseTuples&) = delete;

  /// Flushes the planned engine's kernel-class hit counters into the
  /// global plan metrics exactly once, on every exit path of the search.
  ~DenseTuples() {
    for (std::uint64_t hits : scratch_.class_hits) {
      if (hits != 0) {
        RecordPlanKernelHits(scratch_.class_hits);
        return;
      }
    }
  }

  std::size_t fixed_words() const { return generator_.tuple_words(); }

  /// Q_i = {(v_i, ⊥^k)} — the ε expression (zero blocks).
  std::vector<std::uint64_t> Initial() const {
    std::size_t set_words = generator_.set_words();
    std::vector<std::uint64_t> initial(generator_.tuple_words(), 0);
    for (NodeId v = 0; v < n_; v++) {
      AgState s = ag_.InitialState(v);
      initial[v * set_words + (s >> 6)] |= std::uint64_t{1} << (s & 63);
    }
    return initial;
  }

  const BlockScratch& Generate(const std::uint64_t* run, std::size_t,
                               std::uint32_t store_mask, LabelId label) {
    generator_.Generate(run, store_mask, label, &scratch_);
    return scratch_;
  }

  /// Calls fn(i, state) for every state of every Q_i in row-major order
  /// while it returns true; returns false iff fn stopped the walk.
  template <typename Fn>
  bool ForEachEntry(const std::uint64_t* run, std::size_t, Fn fn) const {
    std::size_t set_words = generator_.set_words();
    for (std::size_t i = 0; i < n_; i++) {
      const std::uint64_t* q = run + i * set_words;
      for (std::size_t w = 0; w < set_words; w++) {
        std::uint64_t bits = q[w];
        while (bits != 0) {
          AgState state = static_cast<AgState>(
              (w << 6) + static_cast<std::size_t>(__builtin_ctzll(bits)));
          bits &= bits - 1;
          if (!fn(i, state)) {
            return false;
          }
        }
      }
    }
    return true;
  }

 private:
  const AssignmentGraph& ag_;
  std::size_t n_;
  KernelDispatchTable dispatch_;
  SuccessorGenerator generator_;
  BlockScratch scratch_;
};

/// Sparse layout: a sorted (node index, state) entry list per tuple, one
/// variable-length run. Successors come from SparseSuccessorGenerator (the
/// reference shape); the `engine` option is ignored.
class SparseTuples {
 public:
  SparseTuples(const AssignmentGraph& ag, std::size_t n,
               const KRemDefinabilityOptions& options)
      : ag_(ag), n_(n), generator_(ag, options.cancel) {
    generator_.InitScratch(&scratch_);
  }

  std::size_t fixed_words() const { return 0; }

  /// Q_i = {(v_i, ⊥^k)}. Node indices increase, so the list is born
  /// sorted.
  std::vector<std::uint64_t> Initial() const {
    std::vector<std::uint64_t> initial;
    initial.reserve(n_);
    for (NodeId v = 0; v < n_; v++) {
      initial.push_back(PackEntry(v, ag_.InitialState(v)));
    }
    return initial;
  }

  const SparseBlockScratch& Generate(const std::uint64_t* run,
                                     std::size_t length,
                                     std::uint32_t store_mask, LabelId label) {
    generator_.Generate(run, length, store_mask, label, &scratch_);
    return scratch_;
  }

  /// Same contract as DenseTuples::ForEachEntry, in the same order.
  template <typename Fn>
  bool ForEachEntry(const std::uint64_t* run, std::size_t length,
                    Fn fn) const {
    for (std::size_t e = 0; e < length; e++) {
      if (!fn(static_cast<std::size_t>(run[e] >> 32),
              static_cast<AgState>(run[e]))) {
        return false;
      }
    }
    return true;
  }

 private:
  const AssignmentGraph& ag_;
  std::size_t n_;
  SparseSuccessorGenerator generator_;
  SparseBlockScratch scratch_;
};

/// The macro-tuple BFS, generic over the tuple layout (DenseTuples or
/// SparseTuples) and over the relation representation: only num_nodes(),
/// Pairs() and Test() are used, so any AdaptiveRelation backend drives it
/// without densification. Nothing it allocates besides the layout's own
/// tuples is proportional to n².
template <typename Tuples, typename Rel>
Result<KRemDefinabilityResult> CheckKRemBfs(
    const DataGraph& graph, const Rel& relation, std::size_t k,
    const KRemDefinabilityOptions& options) {
  KRemDefinabilityResult result;
  std::vector<std::pair<NodeId, NodeId>> pairs = relation.Pairs();
  if (pairs.empty()) {
    // The empty relation is definable (e.g. by a[¬⊤], or by any REM whose
    // language contains no data path of the graph).
    result.verdict = DefinabilityVerdict::kDefinable;
    return result;
  }

  GQD_ASSIGN_OR_RETURN(AssignmentGraph ag,
                       AssignmentGraph::Build(graph, k, options.budget));
  std::size_t n = graph.NumNodes();
  Tuples layout(ag, n, options);

  // BFS bookkeeping: flat tuple storage + interner, parent links, and the
  // incoming block of each tuple for witness reconstruction.
  TupleStore tuples(layout.fixed_words(), options.budget);
  std::vector<std::size_t> parent;
  std::vector<BasicRemBlock> incoming;

  // Pair bookkeeping: which pairs of S still need a witness, and the tuple
  // index at which each pair was first accepted. Both are flat arrays over
  // the rank of a pair in `pairs`, which Pairs() returns row-major sorted:
  // row p's pairs are ranks [row_begin[p], row_begin[p+1]), ordered by
  // target, so a rank is one binary search within a row.
  constexpr std::size_t kUnsolved = static_cast<std::size_t>(-1);
  std::vector<std::size_t> row_begin(n + 1, 0);
  for (const auto& pair : pairs) {
    row_begin[pair.first + 1]++;
  }
  for (std::size_t p = 0; p < n; p++) {
    row_begin[p + 1] += row_begin[p];
  }
  std::vector<std::size_t> pair_solution(pairs.size(), kUnsolved);
  if (options.budget != nullptr) {
    options.budget->ChargeBytes(static_cast<std::int64_t>(
        (row_begin.size() + pair_solution.size()) * sizeof(std::size_t)));
  }
  auto rank_of = [&](std::size_t p, NodeId q) {
    auto first = pairs.begin() + static_cast<std::ptrdiff_t>(row_begin[p]);
    auto last = pairs.begin() + static_cast<std::ptrdiff_t>(row_begin[p + 1]);
    auto it = std::lower_bound(
        first, last, q,
        [](const std::pair<NodeId, NodeId>& pair, NodeId target) {
          return pair.second < target;
        });
    return it != last && it->second == q
               ? static_cast<std::size_t>(it - pairs.begin())
               : kUnsolved;
  };
  std::size_t unsolved = pairs.size();

  // Safety and acceptance of one tuple, one entry walk each: every
  // (v', σ) ∈ Q_i must have ⟨v_i, v'⟩ ∈ S, and a safe tuple then marks
  // each still-unsolved ⟨v_i, v'⟩ it contains by its rank.
  auto process_tuple = [&](std::size_t index) {
    const std::uint64_t* run = tuples.RunAt(index);
    std::size_t length = tuples.LengthAt(index);
    bool safe = layout.ForEachEntry(
        run, length, [&](std::size_t i, AgState state) {
          return relation.Test(static_cast<NodeId>(i), ag.NodeOf(state));
        });
    if (!safe) {
      return;  // unsafe: this tuple accepts no pair
    }
    layout.ForEachEntry(run, length, [&](std::size_t i, AgState state) {
      // Safe, so ⟨v_i, v'⟩ ∈ S and rank_of finds it.
      std::size_t rank = rank_of(i, ag.NodeOf(state));
      if (rank != kUnsolved && pair_solution[rank] == kUnsolved) {
        pair_solution[rank] = index;
        unsolved--;
      }
      return unsolved > 0;
    });
  };

  {
    GQD_TRACE_SPAN(span, "krem.arena_init");
    std::vector<std::uint64_t> initial = layout.Initial();
    GQD_TRACE_SPAN_ATTR(span, "words", initial.size());
    bool inserted = false;
    tuples.Intern(initial.data(), initial.size(),
                  HashTupleWords(initial.data(), initial.size()), &inserted);
    parent.push_back(kUnsolved);
    incoming.push_back(BasicRemBlock{});
    process_tuple(0);
  }

  // Merges one block's candidates into the store, in emission order:
  // blocks in (store_mask, label) order, candidates in DFS order.
  auto merge_block = [&](const auto& block, std::uint32_t mask,
                         LabelId label, std::size_t head) {
    for (const Candidate& c : block.candidates) {
      if (tuples.fault()) {
        // Injected growth failure: stop interning so the fixed-size probe
        // table cannot fill up; the BFS loop surfaces the fault.
        return;
      }
      bool inserted = false;
      std::size_t index = tuples.Intern(block.arena.data() + c.offset,
                                        c.count, c.hash, &inserted);
      if (inserted) {
        parent.push_back(head);
        incoming.push_back(BasicRemBlock{mask, label, c.condition});
        process_tuple(index);
        if (unsolved == 0) {
          return;
        }
      }
    }
  };

  // Blocks-of-`head` depth for the partial-progress report: the number of
  // BFS levels (= witness blocks) between the root and `index`.
  auto depth_of = [&](std::size_t index) {
    std::size_t d = 0;
    for (std::size_t at = index; at != 0; at = parent[at]) {
      d++;
    }
    return d;
  };
  // kBudgetExhausted with the structured partial-progress report — the
  // ResourceBudget trip path, as opposed to the legacy max_tuples cap.
  auto exhausted_result = [&](std::size_t at) {
    result.verdict = DefinabilityVerdict::kBudgetExhausted;
    result.tuples_explored = tuples.size();
    result.partial =
        PartialProgress{tuples.size(), depth_of(at),
                        options.budget->bytes_peak(), "krem-bfs"};
    return result;
  };
  auto injected_fault = [] {
    return Status::ResourceExhausted(
        "injected tuple-store growth failure (failpoint krem.arena.grow)");
  };

  // Whole-search span plus one child span per BFS generation (= frontier
  // level). Generation boundaries are tracked by head index: when `head`
  // crosses the store size snapshotted at the previous boundary, every
  // tuple of the previous frontier has been expanded and merged, so the
  // store size at that instant is the next boundary. Declared after any
  // early-return state so the generation span closes before the search
  // span on every exit path.
  std::optional<Span> bfs_span(std::in_place, "krem.bfs");
  std::size_t bfs_generation = 0;
  std::size_t generation_end = tuples.size();
  std::optional<Span> gen_span;
  auto advance_generation_span = [&](std::size_t at_head) {
    if (Tracer::Current() == nullptr) {
      return;
    }
    if (gen_span.has_value() && at_head < generation_end) {
      return;
    }
    if (gen_span.has_value()) {
      gen_span->AddAttr("tuples", tuples.size());
      gen_span.reset();
      bfs_generation++;
      generation_end = tuples.size();
    }
    gen_span.emplace("krem.bfs_generation");
    gen_span->AddAttr("generation", bfs_generation);
  };

  std::size_t head = 0;
  while (head < tuples.size() && unsolved > 0) {
    if (tuples.fault()) {
      return injected_fault();
    }
    if (options.budget != nullptr && options.budget->Exhausted()) {
      return exhausted_result(head);
    }
    if (tuples.size() > options.max_tuples) {
      result.verdict = DefinabilityVerdict::kBudgetExhausted;
      result.tuples_explored = tuples.size();
      return result;
    }
    advance_generation_span(head);
    for (std::uint32_t mask = 0;
         mask < ag.num_store_masks() && unsolved > 0; mask++) {
      for (LabelId label = 0; label < ag.num_labels() && unsolved > 0;
           label++) {
        if (options.cancel != nullptr && options.cancel->Expired()) {
          return options.cancel->Check();
        }
        // Generate reads the head's run to completion before the merge
        // interns anything, so arena growth cannot invalidate it.
        const auto& block = layout.Generate(
            tuples.RunAt(head), tuples.LengthAt(head), mask, label);
        if (block.expired) {
          return options.cancel->Check();
        }
        merge_block(block, mask, label, head);
      }
    }
    head++;
  }

  if (gen_span.has_value()) {
    gen_span->AddAttr("tuples", tuples.size());
    gen_span.reset();
  }
  bfs_span->AddAttr("tuples_explored", tuples.size());
  bfs_span->AddAttr("frontier_depth", bfs_generation);
  if (options.budget != nullptr) {
    bfs_span->AddAttr("bytes_peak", options.budget->bytes_peak());
  }
  bfs_span.reset();

  if (tuples.fault()) {
    return injected_fault();
  }
  result.tuples_explored = tuples.size();
  if (unsolved > 0) {
    result.verdict = DefinabilityVerdict::kNotDefinable;
    return result;
  }

  // Reconstruct one witness per pair by walking parent links.
  result.verdict = DefinabilityVerdict::kDefinable;
  for (std::size_t rank = 0; rank < pairs.size(); rank++) {
    KRemWitness witness;
    witness.from = pairs[rank].first;
    witness.to = pairs[rank].second;
    for (std::size_t at = pair_solution[rank]; at != 0; at = parent[at]) {
      witness.blocks.push_back(incoming[at]);
    }
    std::reverse(witness.blocks.begin(), witness.blocks.end());
    result.witnesses.push_back(std::move(witness));
  }
  return result;
}

/// Footprint of one dense macro tuple (saturating): n·⌈n·(δ+1)^k/64⌉ words.
std::size_t DenseTupleFootprintBytes(std::size_t n, std::size_t num_values,
                                     std::size_t k) {
  constexpr std::uint64_t kSat = ~std::uint64_t{0};
  auto mul = [](std::uint64_t a, std::uint64_t b) -> std::uint64_t {
    return (b != 0 && a > kSat / b) ? kSat : a * b;
  };
  std::uint64_t codes = 1;
  for (std::size_t i = 0; i < k; i++) {
    codes = mul(codes, static_cast<std::uint64_t>(num_values) + 1);
  }
  std::uint64_t states = mul(n, codes);
  std::uint64_t set_words = states == kSat ? kSat : (states + 63) / 64;
  return static_cast<std::size_t>(
      mul(mul(n, set_words), sizeof(std::uint64_t)));
}

template <typename Rel>
Result<KRemDefinabilityResult> CheckKRemDispatch(
    const DataGraph& graph, const Rel& relation, std::size_t k,
    const KRemDefinabilityOptions& options) {
  if (relation.num_nodes() != graph.NumNodes()) {
    return Status::InvalidArgument(
        "relation is over a different node count than the graph");
  }
  KRemTupleStore store = options.tuple_store;
  if (store == KRemTupleStore::kAuto) {
    store = DenseTupleFootprintBytes(graph.NumNodes(), graph.NumDataValues(),
                                     k) <= kDenseTupleBytesCap
                ? KRemTupleStore::kDense
                : KRemTupleStore::kSparseFrontier;
  }
  if (store == KRemTupleStore::kDense) {
    return CheckKRemBfs<DenseTuples>(graph, relation, k, options);
  }
  return CheckKRemBfs<SparseTuples>(graph, relation, k, options);
}

}  // namespace

Result<KRemDefinabilityResult> CheckKRemDefinability(
    const DataGraph& graph, const BinaryRelation& relation, std::size_t k,
    const KRemDefinabilityOptions& options) {
  return CheckKRemDispatch(graph, relation, k, options);
}

Result<KRemDefinabilityResult> CheckKRemDefinability(
    const DataGraph& graph, const AdaptiveRelation& relation, std::size_t k,
    const KRemDefinabilityOptions& options) {
  return CheckKRemDispatch(graph, relation, k, options);
}

Result<KRemDefinabilityResult> CheckRemDefinability(
    const DataGraph& graph, const BinaryRelation& relation,
    const KRemDefinabilityOptions& options) {
  return CheckKRemDefinability(graph, relation, graph.NumDataValues(),
                               options);
}

Result<KRemDefinabilityResult> CheckRemDefinability(
    const DataGraph& graph, const AdaptiveRelation& relation,
    const KRemDefinabilityOptions& options) {
  return CheckKRemDefinability(graph, relation, graph.NumDataValues(),
                               options);
}

RemPtr BasicRemFromBlocks(const std::vector<BasicRemBlock>& blocks,
                          std::size_t k, const StringInterner& labels) {
  if (blocks.empty()) {
    return rem::Epsilon();
  }
  MintermMask full = (NumMinterms(k) == 64)
                         ? ~MintermMask{0}
                         : ((MintermMask{1} << NumMinterms(k)) - 1);
  std::vector<RemPtr> parts;
  for (const BasicRemBlock& block : blocks) {
    RemPtr step = rem::Letter(labels.NameOf(block.label));
    if ((block.condition & full) != full) {
      step = rem::Test(std::move(step),
                       ConditionFromMinterms(block.condition, k));
    }
    if (block.store_mask != 0) {
      std::vector<std::size_t> registers;
      for (std::size_t r = 0; r < k; r++) {
        if (block.store_mask & (1u << r)) {
          registers.push_back(r);
        }
      }
      step = rem::Bind(std::move(registers), std::move(step));
    }
    parts.push_back(std::move(step));
  }
  return rem::Concat(std::move(parts));
}

}  // namespace gqd
