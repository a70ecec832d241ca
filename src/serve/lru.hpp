/**
 * @file
 * The least-recently-used map behind the serving layer's caches: each
 * PredictionCache stripe and the ModelGraphCache. It neither locks nor
 * counts; every cache holds its own mutex and keeps its own counters.
 */

#ifndef NEUSIGHT_SERVE_LRU_HPP
#define NEUSIGHT_SERVE_LRU_HPP

#include <cstddef>
#include <string>
#include <unordered_map>
#include <utility>

namespace neusight::serve {

/** What LruMap::put() did: added a key (evicting the least-recently-used
 *  entry when the map was full) or refreshed a present one. */
enum class LruPut
{
    Inserted,
    Evicted,
    Refreshed,
};

/**
 * LRU map from string keys to V, holding at most `capacity` (>= 1)
 * entries. An entry is one hash-map node that also carries its links in
 * the recency list, so the key is stored once and an entry costs one
 * heap allocation. Not thread-safe.
 */
template <typename V>
class LruMap
{
  public:
    explicit LruMap(size_t capacity) : maxEntries(capacity) {}

    // The recency links point into this map's own nodes.
    LruMap(const LruMap &) = delete;
    LruMap &operator=(const LruMap &) = delete;

    /** @p key's value, promoted to most-recently-used; null if absent. */
    V *find(const std::string &key)
    {
        const auto it = index.find(key);
        if (it == index.end())
            return nullptr;
        promote(&*it);
        return &it->second.value;
    }

    /** Store @p value under @p key as the most-recently-used entry. */
    LruPut put(const std::string &key, V value)
    {
        const auto [it, inserted] = index.try_emplace(key, std::move(value));
        if (!inserted) {
            it->second.value = std::move(value);
            promote(&*it);
            return LruPut::Refreshed;
        }
        linkNewest(&*it);
        if (index.size() <= maxEntries)
            return LruPut::Inserted;
        Slot *victim = oldest;
        unlink(victim);
        index.erase(victim->first);
        return LruPut::Evicted;
    }

    /** Visit every (key, value), least recently used first. */
    template <typename F>
    void forEachOldestFirst(F &&visit) const
    {
        for (const Slot *s = oldest; s != nullptr; s = s->second.newer)
            visit(s->first, s->second.value);
    }

    void clear()
    {
        index.clear();
        newest = oldest = nullptr;
    }

    size_t size() const { return index.size(); }

    size_t capacity() const { return maxEntries; }

  private:
    struct Node;
    using Slot = std::pair<const std::string, Node>;

    struct Node
    {
        explicit Node(V v) : value(std::move(v)) {}

        V value;
        Slot *newer = nullptr;
        Slot *older = nullptr;
    };

    void unlink(Slot *s)
    {
        Node &n = s->second;
        (n.newer ? n.newer->second.older : newest) = n.older;
        (n.older ? n.older->second.newer : oldest) = n.newer;
        n.newer = n.older = nullptr;
    }

    void linkNewest(Slot *s)
    {
        s->second.older = newest;
        (newest ? newest->second.newer : oldest) = s;
        newest = s;
    }

    void promote(Slot *s)
    {
        unlink(s);
        linkNewest(s);
    }

    /** Node-based: a Slot keeps its address until it is erased. */
    std::unordered_map<std::string, Node> index;
    Slot *newest = nullptr;
    Slot *oldest = nullptr;
    size_t maxEntries;
};

} // namespace neusight::serve

#endif // NEUSIGHT_SERVE_LRU_HPP
