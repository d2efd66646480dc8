// PersistentMap: a copy-on-write ordered map with O(1) snapshots.
//
// This is the structure behind the engine's ledger snapshots: every
// BlockEntry keeps the full post-state of its branch, and forks, block
// validation and block assembly all start from a copy of a stored state.
// With std::map those copies cost O(state size) each. Here a copy is a
// shared root pointer over a weight-balanced search tree, and a write is
// copy-on-write *when shared*: descending to the key, a node whose
// reference count is 1 belongs to this handle alone and is mutated in
// place; a shared node is first shallow-cloned (same key, value and
// children, one more reference on each child). Cloning a node makes its
// children shared, so the first write after a snapshot copies the path
// to the key and later writes to the same region touch nothing but the
// handle's own nodes. A block body or an assembly pass on a copied state
// therefore path-copies each region once, then writes in place.
//
// Snapshots never observe a write: a node reachable from two handles has
// either a count above 1 or an ancestor with a count above 1, and the
// top-down descent clones every such node before touching it.
//
// Determinism: iteration is strictly in key order (same order as std::map
// with std::less), independent of insertion history, so every fold over a
// ledger state is reproducible bit-for-bit.
//
// The API is the std::map subset the ledger needs — Find/At/Put/Erase plus
// const in-order iteration (range-for compatible). Iterators and Find()
// pointers are invalidated by any mutation of the *handle* they came from;
// snapshots taken before the mutation remain valid and unchanged (that is
// the point).
//
// Allocation and threads: nodes carry a plain intrusive reference count
// and are allocated with new/delete, so a clone is one allocation with no
// shared_ptr control block. The count is not atomic, which gives the
// threading contract: a map and every copy that shares nodes with it
// belong to one thread at a time. Handing the whole family to another
// thread across a synchronization point (a thread join, a task boundary)
// is fine; copying, mutating or destroying two members of one family on
// two threads at once is a data race on the shared counts. The sweep's
// worker pool builds and destroys each world inside one task, so no
// simulator path shares nodes across threads.

#ifndef AC3_COMMON_PERSISTENT_MAP_H_
#define AC3_COMMON_PERSISTENT_MAP_H_

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

/// Core utilities shared by every module (the dependency root).
namespace ac3 {

/// Copy-on-write ordered map (Adams weight-balanced tree): O(1) snapshot
/// copies, O(log n) writes that mutate unshared nodes in place and clone
/// shared ones, std::map-identical key-order iteration. Nodes carry
/// non-atomic intrusive refcounts: a map and every copy sharing nodes
/// with it belong to one thread at a time (see the file comment).
template <typename K, typename V>
class PersistentMap {
 private:
  struct Node;  // Defined below; declared early for the iterator.

 public:
  /// An empty map (no allocation until the first Put).
  PersistentMap() = default;

  /// Number of keys, maintained per node (O(1)).
  size_t size() const { return Size(root_); }
  /// True when no keys are present.
  bool empty() const { return root_ == nullptr; }

  /// Pointer to the value for `key`, or nullptr when absent. The pointer
  /// is stable for the lifetime of any snapshot still holding the node.
  const V* Find(const K& key) const {
    const Node* walk = root_.get();
    while (walk != nullptr) {
      if (key < walk->key) {
        walk = walk->left.get();
      } else if (walk->key < key) {
        walk = walk->right.get();
      } else {
        return &walk->value;
      }
    }
    return nullptr;
  }

  /// True when `key` is present.
  bool Contains(const K& key) const { return Find(key) != nullptr; }

  /// Accessor for keys known to exist; throws like std::map::at so a
  /// missing key stays a defined failure in release builds too.
  const V& at(const K& key) const {
    const V* value = Find(key);
    if (value == nullptr) throw std::out_of_range("PersistentMap::at");
    return *value;
  }

  /// Inserts or replaces `key`. Mutates only this handle: other copies of
  /// the map keep observing the previous version.
  void Put(const K& key, V value) { Insert(root_, key, std::move(value)); }

  /// Removes `key`; returns whether it was present.
  bool Erase(const K& key) {
    if (!Contains(key)) return false;  // Avoid cloning shared nodes on a miss.
    Remove(root_, key);
    return true;
  }

  /// In-order traversal (key order), cheapest way to fold over the map.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    ForEachNode(root_.get(), fn);
  }

  /// Structural equality: same keys mapping to equal values (element-wise,
  /// in key order).
  bool operator==(const PersistentMap& other) const {
    if (size() != other.size()) return false;
    const_iterator a = begin();
    const_iterator b = other.begin();
    for (; a != end(); ++a, ++b) {
      if ((*a).first != (*b).first || !((*a).second == (*b).second)) {
        return false;
      }
    }
    return true;
  }

  /// Verifies the tree invariants: keys strictly ascending in order,
  /// every node's cached size exact, and every node weight-balanced
  /// (neither child heavier than delta = 3 times the other, counting
  /// weight as size + 1). O(n); for tests.
  bool CheckInvariants() const {
    const K* prev = nullptr;
    return CheckNode(root_.get(), &prev);
  }

  // ---- in-order const iteration (range-for support) ------------------------

  /// Forward in-order iterator over (key, value) references. Valid as
  /// long as the handle it came from is neither mutated nor destroyed;
  /// snapshots taken earlier are unaffected by later mutations.
  class const_iterator {
   public:
    /// Dereference result: a pair of references into the tree.
    using value_type = std::pair<const K&, const V&>;

    /// The past-the-end iterator.
    const_iterator() = default;

    /// Current (key, value) pair.
    value_type operator*() const {
      const Node* node = stack_.back();
      return {node->key, node->value};
    }

    /// Advances to the next key in order.
    const_iterator& operator++() {
      const Node* node = stack_.back();
      stack_.pop_back();
      PushLeftSpine(node->right.get());
      return *this;
    }

    /// Iterators are equal when positioned on the same node (or both at
    /// the end).
    bool operator==(const const_iterator& other) const {
      if (stack_.empty() || other.stack_.empty()) {
        return stack_.empty() == other.stack_.empty();
      }
      return stack_.back() == other.stack_.back();
    }
    /// Negation of operator==.
    bool operator!=(const const_iterator& other) const {
      return !(*this == other);
    }

   private:
    friend class PersistentMap;
    void PushLeftSpine(const Node* node) {
      for (; node != nullptr; node = node->left.get()) {
        stack_.push_back(node);
      }
    }
    std::vector<const Node*> stack_;
  };

  /// Iterator on the smallest key (== end() when empty).
  const_iterator begin() const {
    const_iterator it;
    it.PushLeftSpine(root_.get());
    return it;
  }
  /// The past-the-end iterator.
  const_iterator end() const { return const_iterator(); }

 private:
  class NodeRef;
  using Ptr = NodeRef;

  struct Node {
    Node(const K& k, V v, NodeRef l, NodeRef r, size_t s)
        : key(k),
          value(std::move(v)),
          left(std::move(l)),
          right(std::move(r)),
          size(s) {}

    K key;
    V value;
    Ptr left;
    Ptr right;
    size_t size;
    /// Intrusive count; starts at 1 for the reference Make() returns.
    uint32_t refs = 1;
  };

  /// Intrusive shared reference to a Node — the shared_ptr<Node> subset
  /// the tree needs, minus the control block and weak count. Readers get
  /// const access; writers go through Unique(), which hands out a mutable
  /// node only when this reference is its sole owner.
  class NodeRef {
   public:
    NodeRef() = default;
    NodeRef(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

    NodeRef(const NodeRef& other) : node_(other.node_) {
      if (node_ != nullptr) ++node_->refs;
    }
    NodeRef(NodeRef&& other) noexcept : node_(other.node_) {
      other.node_ = nullptr;
    }
    NodeRef& operator=(const NodeRef& other) {
      NodeRef copy(other);
      return *this = std::move(copy);
    }
    /// Takes `other`'s node, then releases the old one. The order matters
    /// for `slot = std::move(node->child)`: the child is detached before
    /// its old parent can be destroyed.
    NodeRef& operator=(NodeRef&& other) noexcept {
      if (this == &other) return *this;
      Node* old = node_;
      node_ = other.node_;
      other.node_ = nullptr;
      Release(old);
      return *this;
    }
    ~NodeRef() { Release(node_); }

    const Node* get() const { return node_; }
    const Node* operator->() const { return node_; }
    const Node& operator*() const { return *node_; }
    bool operator==(std::nullptr_t) const { return node_ == nullptr; }
    bool operator!=(std::nullptr_t) const { return node_ != nullptr; }
    explicit operator bool() const { return node_ != nullptr; }

    /// Takes ownership of a node whose count is already 1.
    static NodeRef Adopt(Node* node) {
      NodeRef ref;
      ref.node_ = node;
      return ref;
    }

    /// True when this is the only reference to the (non-null) node.
    bool IsUnique() const { return node_->refs == 1; }
    /// Mutable access; only valid while IsUnique().
    Node* mutable_get() const { return node_; }

   private:
    static void Release(Node* node) {
      if (node == nullptr) return;
      // Destroying the node releases its children in turn; recursion
      // depth is bounded by the (balanced) tree height.
      if (--node->refs == 0) delete node;
    }

    Node* node_ = nullptr;
  };

  static size_t Size(const Ptr& node) { return node ? node->size : 0; }
  /// Weight = size + 1, the standard trick that keeps the balance
  /// inequalities valid for empty subtrees.
  static size_t Weight(const Ptr& node) { return Size(node) + 1; }

  static Ptr Make(Ptr left, const K& key, V value, Ptr right) {
    const size_t size = 1 + Size(left) + Size(right);
    return NodeRef::Adopt(new Node(key, std::move(value), std::move(left),
                                   std::move(right), size));
  }

  /// The node in `slot` (non-null), made exclusively this handle's: a
  /// shared node is replaced by a shallow clone, which takes one more
  /// reference on each child (so the children now count as shared).
  static Node* Unique(Ptr& slot) {
    if (!slot.IsUnique()) {
      slot = Make(slot->left, slot->key, slot->value, slot->right);
    }
    return slot.mutable_get();
  }

  static void FixSize(Node* node) {
    node->size = 1 + Size(node->left) + Size(node->right);
  }

  /// Single rotations of the subtree in `slot`. Both nodes whose links
  /// change are made unique first.
  static void RotateLeft(Ptr& slot) {
    Node* node = Unique(slot);
    Ptr up = std::move(node->right);
    Node* pivot = Unique(up);
    node->right = std::move(pivot->left);
    FixSize(node);
    pivot->left = std::move(slot);
    FixSize(pivot);
    slot = std::move(up);
  }
  static void RotateRight(Ptr& slot) {
    Node* node = Unique(slot);
    Ptr up = std::move(node->left);
    Node* pivot = Unique(up);
    node->left = std::move(pivot->right);
    FixSize(node);
    pivot->right = std::move(slot);
    FixSize(pivot);
    slot = std::move(up);
  }

  /// Restores the node in `slot` (already unique) after one of its
  /// subtrees gained or lost one key: refreshes the cached size and
  /// rotates back into weight balance (Adams-style weight-balanced tree,
  /// delta = 3, gamma = 2).
  static void Rebalance(Ptr& slot) {
    Node* node = slot.mutable_get();
    const size_t lw = Weight(node->left);
    const size_t rw = Weight(node->right);
    if (rw > 3 * lw) {
      const Ptr& right = node->right;
      if (Weight(right->left) >= 2 * Weight(right->right)) {
        RotateRight(node->right);  // Double rotation.
      }
      RotateLeft(slot);
    } else if (lw > 3 * rw) {
      const Ptr& left = node->left;
      if (Weight(left->right) >= 2 * Weight(left->left)) {
        RotateLeft(node->left);  // Double rotation.
      }
      RotateRight(slot);
    } else {
      FixSize(node);
    }
  }

  /// Returns whether `key` was new (a replacement leaves every size on
  /// the path unchanged, so the callers skip rebalancing).
  static bool Insert(Ptr& slot, const K& key, V&& value) {
    if (slot == nullptr) {
      slot = Make(nullptr, key, std::move(value), nullptr);
      return true;
    }
    Node* node = Unique(slot);
    bool added;
    if (key < node->key) {
      added = Insert(node->left, key, std::move(value));
    } else if (node->key < key) {
      added = Insert(node->right, key, std::move(value));
    } else {
      node->value = std::move(value);
      return false;
    }
    if (added) Rebalance(slot);
    return added;
  }

  /// Detaches the minimum of the subtree in `slot` (non-null), copying its
  /// key and value into `*key` / `*value`.
  static void PopMin(Ptr& slot, K* key, V* value) {
    if (slot->left == nullptr) {
      *key = slot->key;
      *value = slot->value;
      Ptr right = slot->right;
      slot = std::move(right);
      return;
    }
    Node* node = Unique(slot);
    PopMin(node->left, key, value);
    Rebalance(slot);
  }

  /// `key` is known to exist under `slot`.
  static void Remove(Ptr& slot, const K& key) {
    Node* node = Unique(slot);
    if (key < node->key) {
      Remove(node->left, key);
    } else if (node->key < key) {
      Remove(node->right, key);
    } else if (node->left == nullptr || node->right == nullptr) {
      Ptr child = std::move(node->left == nullptr ? node->right : node->left);
      slot = std::move(child);
      return;
    } else {
      // Two children: the in-order successor takes this node's place.
      PopMin(node->right, &node->key, &node->value);
    }
    Rebalance(slot);
  }

  template <typename Fn>
  static void ForEachNode(const Node* node, Fn& fn) {
    if (node == nullptr) return;
    ForEachNode(node->left.get(), fn);
    fn(node->key, node->value);
    ForEachNode(node->right.get(), fn);
  }

  static bool CheckNode(const Node* node, const K** prev) {
    if (node == nullptr) return true;
    if (!CheckNode(node->left.get(), prev)) return false;
    if (*prev != nullptr && !(**prev < node->key)) return false;
    *prev = &node->key;
    if (!CheckNode(node->right.get(), prev)) return false;
    const size_t lw = Weight(node->left);
    const size_t rw = Weight(node->right);
    return node->size == lw + rw - 1 && lw <= 3 * rw && rw <= 3 * lw;
  }

  Ptr root_;
};

}  // namespace ac3

#endif  // AC3_COMMON_PERSISTENT_MAP_H_
