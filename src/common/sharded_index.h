// ShardedIndex: an N-way hash-sharded map with slab-backed nodes and a
// hot-entry pointer per shard.
//
// This is the storage behind the chain-global indexes (tx -> occurrences,
// contract -> call entries, hash -> block entry; see
// src/chain/chain_index.h). The requirements those indexes share:
//
//   * **pointer stability** — block entries are referenced by raw pointer
//     everywhere (parent links, head pointers, occurrence lists), so
//     values must never move. Nodes are slab-allocated (one SlabPool per
//     shard) and only the bucket *pointer table* rehashes.
//   * **sharding by key hash** — a world of hundreds of chains holds
//     millions of index entries; N smaller shards keep bucket tables in
//     reasonable allocation sizes, keep rehash pauses short, and give
//     every per-shard structure (slab pool, hot entry) locality.
//   * **deterministic iteration** — ForEach visits shards in index order
//     and entries in per-shard insertion order, a pure function of the
//     operation sequence (never of pointer values or rehash timing), so
//     golden tests and committed bench fingerprints stay reproducible.
//   * **a hot-entry fast path** — each shard remembers the node its
//     latest Emplace inserted or hit, and every lookup checks that node
//     before walking its bucket, so a repeated lookup of that key skips
//     the hash walk.
//
// Thread safety: mutation is single-threaded; lookups never write, so
// const lookups may run concurrently between mutations. Every owner (one
// Blockchain per simulated world, each world on one thread) uses its
// indexes from a single thread.
//
// Oracle mode: `Options{.oracle = true}` swaps the backing storage for a
// single plain std::unordered_map (no shards, no slabs, no hot entry)
// behind the same API. Equivalence tests and the many-chain bench drive
// identical operation sequences through both modes and fail on any
// divergence, the same discipline as `MineHeaderScalar` against
// `MineHeader`.

#ifndef AC3_COMMON_SHARDED_INDEX_H_
#define AC3_COMMON_SHARDED_INDEX_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/slab.h"

namespace ac3 {

/// N-way hash-sharded map with slab-backed, pointer-stable nodes, a
/// deterministic iteration order, a per-shard hot-entry pointer, and a
/// single-map oracle mode for equivalence testing. Insert-only by
/// design (values stay mutable): the chain indexes it backs are
/// append-only fork-tree stores.
template <typename K, typename V, typename Hasher = std::hash<K>>
class ShardedIndex {
 public:
  /// Construction knobs. Defaults match the per-chain index use case.
  struct Options {
    /// Shard count; rounded up to a power of two, at least 1.
    size_t shards = 16;
    /// True routes every operation through one plain std::unordered_map —
    /// the reference implementation the sharded backend is tested against.
    bool oracle = false;
    /// Blocks per slab for the node pools (0 = SlabPool's ~64 KiB auto).
    size_t blocks_per_slab = 0;
  };

  /// An index with the given options (no allocation until the first
  /// insert beyond the shard headers).
  explicit ShardedIndex(Options options = Options{})
      : oracle_(options.oracle) {
    const size_t want = options.oracle ? 1 : std::max<size_t>(options.shards, 1);
    size_t shards = 1;
    while (shards < want) shards <<= 1;
    shard_bits_ = 0;
    while ((size_t{1} << shard_bits_) < shards) ++shard_bits_;
    shards_.reserve(shards);
    for (size_t s = 0; s < shards; ++s) {
      shards_.push_back(std::make_unique<Shard>(options.blocks_per_slab));
    }
  }

  /// Stored values are referenced by stable pointer: not copyable.
  ShardedIndex(const ShardedIndex&) = delete;
  /// Stored values are referenced by stable pointer: not assignable.
  ShardedIndex& operator=(const ShardedIndex&) = delete;

  /// Destroys every node and returns its block to the shard's pool.
  ~ShardedIndex() {
    for (auto& shard : shards_) {
      Node* walk = shard->order_head;
      while (walk != nullptr) {
        Node* next = walk->order_next;
        walk->~Node();
        shard->pool.Deallocate(walk);
        walk = next;
      }
    }
  }

  /// Number of keys stored.
  size_t size() const { return size_; }
  /// True when no keys are stored.
  bool empty() const { return size_ == 0; }
  /// Number of shards (1 in oracle mode).
  size_t shard_count() const { return shards_.size(); }
  /// True when this instance runs the single-map oracle backend.
  bool is_oracle() const { return oracle_; }

  /// Read-only lookup; nullptr when absent (checks the shard's hot entry,
  /// then walks the bucket — never mutates).
  const V* Find(const K& key) const {
    const Node* node = FindNode(key);
    return node != nullptr ? &node->kv.second : nullptr;
  }

  /// True when `key` is stored.
  bool Contains(const K& key) const { return FindNode(key) != nullptr; }

  /// Inserts `value` under `key`; returns the stable value pointer and
  /// whether an insert happened (false = key existed, value untouched).
  std::pair<V*, bool> Emplace(const K& key, V value) {
    const size_t hash = Hasher{}(key);
    Shard& shard = ShardFor(hash);
    Node* existing = FindInShard(shard, hash, key);
    if (existing != nullptr) {
      shard.hot = existing;
      return {&existing->kv.second, false};
    }
    Node* node = new (shard.pool.Allocate()) Node(key, std::move(value), hash);
    LinkNode(shard, node);
    ++size_;
    return {&node->kv.second, true};
  }

  /// The value under `key`, default-constructing it on first use — the
  /// accumulator idiom (`index.GetOrCreate(id).push_back`).
  V& GetOrCreate(const K& key) { return *Emplace(key, V{}).first; }

  /// Visits every (key, value) pair: shards in index order, entries in
  /// per-shard insertion order. The order is a pure function of the
  /// operation sequence and the shard count — never of pointer values,
  /// rehash timing, or platform hash quirks within a run — so two
  /// identically-driven instances iterate identically.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& shard : shards_) {
      for (const Node* node = shard->order_head; node != nullptr;
           node = node->order_next) {
        fn(node->kv.first, node->kv.second);
      }
    }
  }

  /// Total bytes the node pools have reserved across shards (slab memory,
  /// live or free). Excludes heap owned by the values themselves and the
  /// bucket pointer tables. Zero in oracle mode.
  size_t bytes_reserved() const {
    size_t total = 0;
    for (const auto& shard : shards_) total += shard->pool.bytes_reserved();
    return total;
  }

 private:
  struct Node {
    Node(const K& key, V value, size_t h)
        : hash(h), kv(key, std::move(value)) {}
    Node* bucket_next = nullptr;
    Node* order_next = nullptr;
    size_t hash = 0;
    std::pair<const K, V> kv;
  };

  struct Shard {
    explicit Shard(size_t blocks_per_slab)
        : pool(sizeof(Node), blocks_per_slab) {}
    SlabPool pool;
    std::vector<Node*> buckets;  // Power-of-two sized; empty until first use.
    Node* order_head = nullptr;
    Node* order_tail = nullptr;
    Node* hot = nullptr;  // Latest Emplace'd node (unread in oracle mode).
    std::unordered_map<K, Node*, Hasher> oracle_map;  // Oracle backend only.
    size_t count = 0;
  };

  /// Finalizer-mixed key hash: decorrelates the shard selector (low bits)
  /// from the in-shard bucket index (bits above shard_bits_) even for
  /// identity-like std::hash implementations.
  static size_t Mix(size_t hash) {
    uint64_t x = static_cast<uint64_t>(hash);
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return static_cast<size_t>(x);
  }

  Shard& ShardFor(size_t hash) {
    return *shards_[Mix(hash) & (shards_.size() - 1)];
  }
  const Shard& ShardFor(size_t hash) const {
    return *shards_[Mix(hash) & (shards_.size() - 1)];
  }

  size_t BucketIndex(const Shard& shard, size_t hash) const {
    return (Mix(hash) >> shard_bits_) & (shard.buckets.size() - 1);
  }

  const Node* FindNode(const K& key) const {
    const size_t hash = Hasher{}(key);
    const Shard& shard = ShardFor(hash);
    return FindInShard(const_cast<Shard&>(shard), hash, key);
  }

  Node* FindInShard(Shard& shard, size_t hash, const K& key) const {
    if (oracle_) {
      auto it = shard.oracle_map.find(key);
      return it == shard.oracle_map.end() ? nullptr : it->second;
    }
    // Hot-entry fast path: a lookup of the shard's latest Emplace'd key
    // skips the bucket walk.
    const Node* hot = shard.hot;
    if (hot != nullptr && hot->hash == hash && hot->kv.first == key) {
      return const_cast<Node*>(hot);
    }
    if (shard.buckets.empty()) return nullptr;
    for (Node* walk = shard.buckets[BucketIndex(shard, hash)]; walk != nullptr;
         walk = walk->bucket_next) {
      if (walk->hash == hash && walk->kv.first == key) return walk;
    }
    return nullptr;
  }

  void LinkNode(Shard& shard, Node* node) {
    // Insertion-order chain (the deterministic iteration spine).
    if (shard.order_tail == nullptr) {
      shard.order_head = shard.order_tail = node;
    } else {
      shard.order_tail->order_next = node;
      shard.order_tail = node;
    }
    ++shard.count;
    if (oracle_) {
      shard.oracle_map.emplace(node->kv.first, node);
      return;
    }
    if (shard.count > shard.buckets.size()) {
      // Rehash walks the order chain, which already holds `node` — it
      // buckets the new node too, so don't push it a second time.
      Rehash(shard);
    } else {
      const size_t index = BucketIndex(shard, node->hash);
      node->bucket_next = shard.buckets[index];
      shard.buckets[index] = node;
    }
    shard.hot = node;
  }

  /// Doubles the bucket table (load factor 1) and relinks every node.
  /// Nodes never move; only bucket heads change.
  void Rehash(Shard& shard) {
    size_t buckets = shard.buckets.empty() ? 8 : shard.buckets.size() * 2;
    while (buckets < shard.count) buckets *= 2;
    shard.buckets.assign(buckets, nullptr);
    for (Node* walk = shard.order_head; walk != nullptr;
         walk = walk->order_next) {
      const size_t index = BucketIndex(shard, walk->hash);
      walk->bucket_next = shard.buckets[index];
      shard.buckets[index] = walk;
    }
  }

  bool oracle_;
  size_t shard_bits_ = 0;
  size_t size_ = 0;
  /// unique_ptr keeps Shard addresses stable across the vector and lets
  /// Shard hold the non-movable SlabPool.
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace ac3

#endif  // AC3_COMMON_SHARDED_INDEX_H_
