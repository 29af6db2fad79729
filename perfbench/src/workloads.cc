#include "workloads.h"

#include <array>
#include <cstdio>
#include <limits>
#include <numeric>
#include <thread>

#include "runtime/client.h"

namespace perfbench {
namespace {

/// A shared, endless sequence of shuffled decks of `size` items. Once
/// time is up the sequence stops at the next deck boundary, so every
/// phase sends each item equally often.
class SharedDeck {
 public:
  void Reset(std::size_t size, std::uint64_t seed) {
    size_ = size;
    order_.clear();
    Rng rng(seed);
    for (std::size_t d = 0; d < kDecks; d++) {
      std::vector<std::size_t> deck(size);
      std::iota(deck.begin(), deck.end(), 0);
      rng.Shuffle(&deck);
      order_.insert(order_.end(), deck.begin(), deck.end());
    }
    cursor_.store(0);
    stop_at_.store(kNever);
  }

  bool Take(bool time_up, std::size_t* item) {
    if (time_up && stop_at_.load() == kNever) {
      std::uint64_t cur = cursor_.load();
      std::uint64_t boundary = (cur + size_ - 1) / size_ * size_;
      std::uint64_t expected = kNever;
      stop_at_.compare_exchange_strong(expected, boundary);
    }
    std::uint64_t i = cursor_.fetch_add(1);
    if (i >= stop_at_.load()) {
      return false;
    }
    *item = order_[i % order_.size()];
    return true;
  }

 private:
  static constexpr std::size_t kDecks = 512;
  static constexpr std::uint64_t kNever =
      std::numeric_limits<std::uint64_t>::max();
  std::size_t size_ = 1;
  std::vector<std::size_t> order_;
  std::atomic<std::uint64_t> cursor_{0};
  std::atomic<std::uint64_t> stop_at_{kNever};
};

std::atomic<std::uint64_t> g_next_id{1};

std::uint64_t NextId() { return g_next_id.fetch_add(1); }

bool CheckDigest(const CheckInstance& inst, const Pins& pins,
                 const CheckPin** out) {
  const CheckPin* pin = pins.FindCheck(inst.id);
  if (pin == nullptr || pin->digest != inst.Digest()) {
    std::fprintf(stderr,
                 "error: no current pin for check %s; the input generator "
                 "changed, so regenerate the pins (perfbench/NOTES.md)\n",
                 inst.id.c_str());
    return false;
  }
  *out = pin;
  return true;
}

bool EvalPinFor(const std::string& pool, std::size_t g, std::uint64_t ghash,
                std::size_t q, const EvalQuery& query, const Pins& pins,
                const EvalPin** out) {
  const EvalPin* pin = pins.FindEval(EvalKey(pool, g, q));
  if (pin == nullptr || pin->digest != EvalDigest(ghash, query)) {
    std::fprintf(stderr,
                 "error: no current pin for eval %s; regenerate the pins "
                 "(perfbench/NOTES.md)\n",
                 EvalKey(pool, g, q).c_str());
    return false;
  }
  *out = pin;
  return true;
}

/// Sends `requests` over `connections` parallel clients, checking each
/// response; adds the failures to *failed. False if a client cannot
/// connect.
bool SendAll(std::uint16_t port, const std::vector<Request>& requests,
             std::size_t connections, std::size_t* failed) {
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> failures{0};
  std::atomic<bool> connect_failed{false};
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < connections; c++) {
    threads.emplace_back([&] {
      gqd::LineClient client;
      if (!client.Connect(port).ok()) {
        connect_failed = true;
        return;
      }
      for (std::size_t i = next++; i < requests.size(); i = next++) {
        auto response = client.Call(requests[i].line);
        std::string why;
        if (!response.ok() ||
            !VerifyResponse(requests[i], response.value(), &why)) {
          failures++;
          std::fprintf(stderr, "set-up request failed: %s\n",
                       response.ok() ? why.c_str()
                                     : response.status().message().c_str());
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  *failed += failures.load();
  return !connect_failed.load();
}

Request LoadRequest(std::string line) {
  Request r;
  r.line = std::move(line);
  r.kind = "load";
  return r;
}

/// check-serve: 4 connections to one server, checks drawn from the
/// pinned 35-instance pool, each carrying max_tuples.
class CheckServe : public Workload {
 public:
  CheckServe(std::uint64_t seed, const Pins& pins) : seed_(seed), pins_(pins) {}

  std::size_t connections() const override { return 4; }

  bool Setup(Fleet& fleet, const std::string&, std::size_t* failed) override {
    pool_ = CheckServePool();
    pins_of_.assign(pool_.size(), nullptr);
    std::vector<Request> loads;
    std::vector<Request> warm;
    for (std::size_t i = 0; i < pool_.size(); i++) {
      if (!CheckDigest(pool_[i], pins_, &pins_of_[i])) {
        return false;
      }
      loads.push_back(
          LoadRequest(LoadTextLine(GraphName(i), GraphText(pool_[i].graph),
                                   NextId())));
      warm.push_back(Make(i));
    }
    return SendAll(fleet.port(), loads, connections(), failed) &&
           SendAll(fleet.port(), warm, connections(), failed);
  }

  void BeginPhase(std::uint64_t phase) override {
    deck_.Reset(pool_.size(), PhaseSeed(seed_, phase));
  }

  bool Next(std::size_t, bool time_up, Request* out) override {
    std::size_t item = 0;
    if (!deck_.Take(time_up, &item)) {
      return false;
    }
    *out = Make(item);
    return true;
  }

 private:
  static std::string GraphName(std::size_t i) {
    return "cs" + std::to_string(i);
  }

  Request Make(std::size_t i) const {
    Request r;
    r.line = CheckLine(pool_[i], GraphName(i), NextId());
    r.kind = "check:" + pool_[i].checker;
    r.check = &pool_[i];
    r.check_pin = pins_of_[i];
    r.graph = &pool_[i].graph;
    return r;
  }

  std::uint64_t seed_;
  const Pins& pins_;
  std::vector<CheckInstance> pool_;
  std::vector<const CheckPin*> pins_of_;
  SharedDeck deck_;
};

/// eval-routed: 4 connections to a router over 2 workers (replication 2);
/// per deck each of the 8 pinned shard graphs gets its 12 eval templates
/// and 3 tiny checks, so about 80% evals and 20% checks. The seed orders
/// the requests; the shard set is fixed, so response sizes do not vary
/// from seed to seed.
class EvalRouted : public Workload {
 public:
  EvalRouted(std::uint64_t seed, const Pins& pins) : seed_(seed), pins_(pins) {}

  std::size_t connections() const override { return 4; }

  bool routed() const override { return true; }

  bool Setup(Fleet& fleet, const std::string&, std::size_t* failed) override {
    std::vector<GenGraph> pool = RoutedGraphPool();
    std::vector<CheckInstance> pool_checks = RoutedChecks(pool);
    queries_ = RoutedQueries();
    shards_.clear();
    checks_.clear();
    gqd::QueryService canon_service;
    std::vector<Request> loads;
    for (std::size_t s = 0; s < kShards; s++) {
      Shard shard;
      shard.pool_index = s;
      shard.graph = pool[s];
      checks_.push_back(pool_checks[s]);
      std::string text = GraphText(shard.graph);
      loads.push_back(LoadRequest(LoadTextLine(ShardName(s), text, NextId())));
      bool unused = false;
      canon_service.HandleLine(LoadTextLine(ShardName(s), text, 0), &unused);
      shards_.push_back(std::move(shard));
    }
    for (std::size_t s = 0; s < kShards; s++) {
      Shard& shard = shards_[s];
      std::uint64_t ghash = GraphHash(shard.graph);
      shard.eval_pins.resize(queries_.size());
      shard.canon.resize(queries_.size() + 1);
      for (std::size_t q = 0; q < queries_.size(); q++) {
        if (!EvalPinFor("routed", shard.pool_index, ghash, q, queries_[q],
                        pins_, &shard.eval_pins[q])) {
          return false;
        }
        Canon(canon_service, EvalLine(ShardName(s), queries_[q], 0),
              &shard.canon[q]);
      }
      if (!CheckDigest(checks_[s], pins_, &shard.check_pin)) {
        return false;
      }
      Canon(canon_service, CheckLine(checks_[s], ShardName(s), 0),
            &shard.canon.back());
    }
    // Warm both replicas of every shard: reads alternate between owners.
    std::vector<Request> warm;
    for (int pass = 0; pass < 2; pass++) {
      for (std::size_t item = 0; item < kShards * kPerShard; item++) {
        warm.push_back(Make(item));
      }
    }
    return SendAll(fleet.port(), loads, 1, failed) &&
           SendAll(fleet.port(), warm, connections(), failed);
  }

  void BeginPhase(std::uint64_t phase) override {
    deck_.Reset(kShards * kPerShard, PhaseSeed(seed_, phase));
  }

  bool Next(std::size_t, bool time_up, Request* out) override {
    std::size_t item = 0;
    if (!deck_.Take(time_up, &item)) {
      return false;
    }
    *out = Make(item);
    return true;
  }

 private:
  static constexpr std::size_t kShards = 8;
  static constexpr std::size_t kPerShard = 15;  ///< 12 evals + 3 checks

  struct Shard {
    std::size_t pool_index = 0;
    GenGraph graph;
    std::vector<const EvalPin*> eval_pins;
    const CheckPin* check_pin = nullptr;
    std::vector<JVal> canon;  ///< per query, then the check
  };

  static std::string ShardName(std::size_t s) {
    return "shard" + std::to_string(s);
  }

  static void Canon(gqd::QueryService& service, const std::string& line,
                    JVal* out) {
    bool unused = false;
    ParseJson(service.HandleLine(line, &unused), out);
    StripRoutingFields(out);
  }

  Request Make(std::size_t item) const {
    std::size_t s = item / kPerShard;
    std::size_t r = item % kPerShard;
    const Shard& shard = shards_[s];
    Request req;
    req.graph = &shard.graph;
    if (r < queries_.size()) {
      req.line = EvalLine(ShardName(s), queries_[r], NextId());
      req.kind = "eval:" + queries_[r].language;
      req.eval_pins = {shard.eval_pins[r]};
      req.canon = &shard.canon[r];
    } else {
      req.line = CheckLine(checks_[s], ShardName(s), NextId());
      req.kind = "check:rpq";
      req.check = &checks_[s];
      req.check_pin = shard.check_pin;
      req.canon = &shard.canon.back();
    }
    return req;
  }

  std::uint64_t seed_;
  const Pins& pins_;
  std::vector<EvalQuery> queries_;
  std::vector<Shard> shards_;
  std::vector<CheckInstance> checks_;
  SharedDeck deck_;
};

/// eval-cold: 4 connections to one server, each owning one graph name.
/// Distinct pool queries (a quarter as 4-query batches, about 30%
/// repeats); every 50th request of a connection re-loads its name by path
/// from another pre-written container.
class EvalCold : public Workload {
 public:
  EvalCold(std::uint64_t seed, const Pins& pins) : seed_(seed), pins_(pins) {}

  std::size_t connections() const override { return 4; }

  bool Setup(Fleet& fleet, const std::string& dir,
             std::size_t* failed) override {
    graphs_ = ColdGraphPool();
    queries_ = ColdQueries();
    by_language_.clear();
    for (std::size_t q = 0; q < queries_.size(); q++) {
      by_language_[queries_[q].language].push_back(q);
    }
    pins_of_.assign(graphs_.size(),
                    std::vector<const EvalPin*>(queries_.size(), nullptr));
    paths_.clear();
    for (std::size_t g = 0; g < graphs_.size(); g++) {
      std::uint64_t ghash = GraphHash(graphs_[g]);
      for (std::size_t q = 0; q < queries_.size(); q++) {
        if (!EvalPinFor("cold", g, ghash, q, queries_[q], pins_,
                        &pins_of_[g][q])) {
          return false;
        }
      }
      paths_.push_back(dir + "/cold" + std::to_string(g) + ".gqdg");
      if (!WriteContainer(graphs_[g], paths_.back(), /*named=*/true)) {
        return false;
      }
    }
    // Initial graphs, then a short warm-up on them. Both are the same for
    // every seed: a seeded pick of rem queries (12-40 ms each) against rpq
    // ones (1-6 ms) made set-up time vary 3x from seed to seed.
    streams_.assign(connections(), Stream(0));
    std::vector<Request> loads;
    std::vector<Request> warm;
    for (std::size_t c = 0; c < connections(); c++) {
      streams_[c].graph = c * graphs_.size() / connections();
      loads.push_back(Load(c, streams_[c].graph));
      for (std::size_t i = 0; i < 4; i++) {
        warm.push_back(Single(c, streams_[c].graph, c * 4 + i));
      }
    }
    return SendAll(fleet.port(), loads, connections(), failed) &&
           SendAll(fleet.port(), warm, connections(), failed);
  }

  /// Each connection keeps the graph its name is bound to on the server
  /// across phases; only the random streams restart.
  void BeginPhase(std::uint64_t phase) override {
    for (std::size_t c = 0; c < connections(); c++) {
      Stream& st = streams_[c];
      st.rng = Rng(PhaseSeed(PhaseSeed(seed_, phase), c));
      st.count = 0;
      st.recent.clear();
    }
  }

  bool Next(std::size_t conn, bool time_up, Request* out) override {
    Stream& st = streams_[conn];
    std::size_t slot = st.count % kDeck;
    if (time_up && slot == 0) {
      return false;
    }
    st.count++;
    if (slot == kDeck - 1) {
      std::size_t next = (st.graph + 1 + st.rng.Below(graphs_.size() - 1)) %
                         graphs_.size();
      st.graph = next;
      st.recent.clear();
      *out = Load(conn, next);
      return true;
    }
    // Fixed mix per deck: rpq 6 : rem 2 : ree 2; every 4th is a batch.
    static const char* kLanguages[] = {"rpq", "rem", "rpq", "ree", "rpq",
                                       "rpq", "rem", "rpq", "ree", "rpq"};
    const std::string language = kLanguages[slot % 10];
    const std::vector<std::size_t>& candidates = by_language_.at(language);
    if (slot % 4 == 3) {
      std::vector<std::size_t> picks;
      for (int i = 0; i < 4; i++) {
        picks.push_back(candidates[st.rng.Below(candidates.size())]);
      }
      *out = Batch(conn, st.graph, picks);
      return true;
    }
    std::size_t q = candidates[st.rng.Below(candidates.size())];
    if (!st.recent.empty() && st.rng.Chance(0.3)) {
      q = st.recent[st.rng.Below(st.recent.size())];
    } else {
      st.recent.push_back(q);
      if (st.recent.size() > 16) {
        st.recent.erase(st.recent.begin());
      }
    }
    *out = Single(conn, st.graph, q);
    return true;
  }

 private:
  static constexpr std::size_t kDeck = 50;

  struct Stream {
    explicit Stream(std::uint64_t seed) : rng(seed) {}
    Rng rng;
    std::size_t graph = 0;
    std::size_t count = 0;
    std::vector<std::size_t> recent;
  };

  static std::string Name(std::size_t conn) {
    return "cold-c" + std::to_string(conn);
  }

  Request Load(std::size_t conn, std::size_t g) const {
    Request r = LoadRequest(LoadPathLine(Name(conn), paths_[g], NextId()));
    r.graph = &graphs_[g];
    r.container_path = paths_[g];
    return r;
  }

  Request Single(std::size_t conn, std::size_t g, std::size_t q) const {
    Request r;
    r.line = EvalLine(Name(conn), queries_[q], NextId());
    r.kind = "eval:" + queries_[q].language;
    r.eval_pins = {pins_of_[g][q]};
    r.graph = &graphs_[g];
    return r;
  }

  Request Batch(std::size_t conn, std::size_t g,
                const std::vector<std::size_t>& qs) const {
    std::vector<EvalQuery> batch;
    Request r;
    for (std::size_t q : qs) {
      batch.push_back(queries_[q]);
      r.eval_pins.push_back(pins_of_[g][q]);
    }
    r.line = BatchLine(Name(conn), batch, NextId());
    r.kind = "batch:" + batch.front().language;
    r.graph = &graphs_[g];
    return r;
  }

  std::uint64_t seed_;
  const Pins& pins_;
  std::vector<GenGraph> graphs_;
  std::vector<EvalQuery> queries_;
  std::map<std::string, std::vector<std::size_t>> by_language_;
  std::vector<std::vector<const EvalPin*>> pins_of_;
  std::vector<std::string> paths_;
  std::vector<Stream> streams_;
};

/// check-large: one connection; the 300x300 grid a.b check (sparse
/// backend, definable) four times per deck and one 8192-node scale-free
/// check under a byte budget (blocked backend, budget exhausted).
class CheckLarge : public Workload {
 public:
  CheckLarge(std::uint64_t seed, const Pins& pins) : seed_(seed), pins_(pins) {}

  std::size_t connections() const override { return 1; }

  bool Setup(Fleet& fleet, const std::string& dir,
             std::size_t* failed) override {
    instances_ = {LargeGridInstance(),
                  LargeScaleFreeInstance(seed_ % kLargeScaleFreePool)};
    pins_of_.assign(2, nullptr);
    std::vector<Request> loads;
    for (std::size_t i = 0; i < 2; i++) {
      if (!CheckDigest(instances_[i], pins_, &pins_of_[i])) {
        return false;
      }
      std::string path = dir + "/" + instances_[i].id + ".gqdg";
      if (!WriteContainer(instances_[i].graph, path, /*named=*/false)) {
        return false;
      }
      Request load = LoadRequest(LoadPathLine(instances_[i].id, path, NextId()));
      load.graph = &instances_[i].graph;
      load.container_path = path;
      loads.push_back(std::move(load));
    }
    std::vector<Request> warm = {Make(0), Make(1)};
    return SendAll(fleet.port(), loads, 1, failed) &&
           SendAll(fleet.port(), warm, 1, failed);
  }

  void BeginPhase(std::uint64_t phase) override {
    deck_.Reset(kDeck.size(), PhaseSeed(seed_, phase));
  }

  bool Next(std::size_t, bool time_up, Request* out) override {
    std::size_t item = 0;
    if (!deck_.Take(time_up, &item)) {
      return false;
    }
    *out = Make(kDeck[item]);
    return true;
  }

 private:
  static constexpr std::array<std::size_t, 5> kDeck = {0, 0, 0, 0, 1};

  Request Make(std::size_t i) const {
    Request r;
    r.line = CheckLine(instances_[i], instances_[i].id, NextId());
    r.kind = "check:" + instances_[i].checker;
    r.check = &instances_[i];
    r.check_pin = pins_of_[i];
    r.graph = &instances_[i].graph;
    return r;
  }

  std::uint64_t seed_;
  const Pins& pins_;
  std::vector<CheckInstance> instances_;
  std::vector<const CheckPin*> pins_of_;
  SharedDeck deck_;
};

}  // namespace

void StripRoutingFields(JVal* response) {
  for (const char* key : {"served_by", "failovers", "trace_id", "id"}) {
    response->Erase(key);
  }
}

bool VerifyResponse(const Request& request, const std::string& response,
                    std::string* why) {
  JVal resp;
  if (!ParseJson(response, &resp)) {
    *why = "unparseable response to " + request.kind;
    return false;
  }
  if (request.canon != nullptr) {
    JVal payload = resp;
    StripRoutingFields(&payload);
    if (!(payload == *request.canon)) {
      *why = "routed payload differs from the direct canon (" +
             request.kind + ")";
      return false;
    }
  }
  if (!resp.IsTrue("ok")) {
    const JVal* error = resp.Get("error");
    *why = request.kind + " failed: " +
           (error != nullptr ? error->Str("code") + " " + error->Str("message")
                             : std::string("ok:false"));
    return false;
  }
  if (request.kind == "load") {
    return true;
  }
  if (request.check != nullptr) {
    return MatchCheck(*request.check_pin, *request.check, resp, why);
  }
  const JVal* results = resp.Get("results");
  if (request.kind.rfind("batch:", 0) == 0) {
    if (results == nullptr || results->type != JVal::kArray ||
        results->items.size() != request.eval_pins.size()) {
      *why = "batch response has the wrong shape";
      return false;
    }
    for (std::size_t i = 0; i < results->items.size(); i++) {
      if (!MatchEval(*request.eval_pins[i], results->items[i], why)) {
        return false;
      }
    }
    return true;
  }
  return MatchEval(*request.eval_pins.front(), resp, why);
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       std::uint64_t seed, const Pins& pins,
                                       std::string* error) {
  if (name == "check-serve") {
    return std::make_unique<CheckServe>(seed, pins);
  }
  if (name == "eval-routed") {
    return std::make_unique<EvalRouted>(seed, pins);
  }
  if (name == "eval-cold") {
    return std::make_unique<EvalCold>(seed, pins);
  }
  if (name == "check-large") {
    return std::make_unique<CheckLarge>(seed, pins);
  }
  *error = "unknown workload '" + name +
           "' (expected check-serve, eval-routed, eval-cold or check-large)";
  return nullptr;
}

}  // namespace perfbench
