// Package kvstore implements the etcd-like key-value server substrate that
// plays the role of the etcd datastore in the paper's case study (§V).
//
// It models the behaviours the fault injection campaigns depend on:
// hierarchical keys with directories and TTLs, compare-and-swap, HTTP-style
// status/error codes (400 Bad Request on non-ASCII input, 404/100 on
// missing keys, 412/101 on failed compares), port-binding state that leaks
// when a client crashes before cleanup, member-bootstrap state that can be
// corrupted into a "member has already been bootstrapped" condition, and
// stale reads under CPU contention (the resource-hog campaign).
package kvstore

import (
	"fmt"
	"sort"
	"strings"
)

// Error codes mirroring the etcd v2 API.
const (
	CodeKeyNotFound   = 100
	CodeCompareFailed = 101
	CodeNotAFile      = 102
	CodeNotADir       = 104
	CodeNodeExist     = 105
	CodeRootReadOnly  = 107
	CodeDirNotEmpty   = 108
	CodeInvalidField  = 209
	CodeRaftInternal  = 300
)

// node is one entry in the hierarchical keyspace.
type node struct {
	key       string
	value     string
	prevValue string
	dir       bool
	children  map[string]*node
	created   int64
	modified  int64
	expireNS  int64 // virtual-clock expiry; 0 = no TTL
}

func newDir(key string, index int64) *node {
	return &node{key: key, dir: true, children: map[string]*node{}, created: index, modified: index}
}

// NodeInfo is the externally visible form of a node; the zero value means no node.
type NodeInfo struct {
	Key      string `json:"key"`
	Value    string `json:"value,omitempty"`
	Dir      bool   `json:"dir,omitempty"`
	TTL      int64  `json:"ttl,omitempty"`
	Created  int64  `json:"createdIndex"`
	Modified int64  `json:"modifiedIndex"`
}

// store is the keyspace with TTL handling on a virtual clock.
type store struct {
	root  *node
	index int64
}

func newStore() *store {
	return &store{root: newDir("/", 0)}
}

// normalize validates and canonicalises a key. Non-ASCII or empty keys are
// rejected — the source of the paper's "400 Bad Request" failure mode.
func normalize(key string) (string, error) {
	if key == "" {
		return "", fmt.Errorf("empty key")
	}
	for i := 0; i < len(key); i++ {
		if key[i] < 0x20 || key[i] > 0x7e {
			return "", fmt.Errorf("invalid character in key")
		}
	}
	if !strings.HasPrefix(key, "/") {
		key = "/" + key
	}
	for strings.Contains(key, "//") {
		key = strings.ReplaceAll(key, "//", "/")
	}
	if key != "/" {
		key = strings.TrimSuffix(key, "/")
	}
	return key, nil
}

// segment returns the segment of a normalized key starting at i and its end.
func segment(key string, i int) (string, int) {
	if j := strings.IndexByte(key[i:], '/'); j >= 0 {
		return key[i : i+j], i + j
	}
	return key[i:], len(key)
}

// lookup walks to a node, pruning expired entries against now.
func (s *store) lookup(key string, now int64) *node {
	cur := s.root
	for i := 1; i < len(key); {
		part, end := segment(key, i)
		if !cur.dir {
			return nil
		}
		next, ok := cur.children[part]
		if !ok {
			return nil
		}
		if next.expireNS > 0 && now >= next.expireNS {
			delete(cur.children, part)
			return nil
		}
		cur, i = next, end+1
	}
	return cur
}

// ensureDirs returns the parent of a non-root key, making dirs, and its last segment.
func (s *store) ensureDirs(key string, now int64) (*node, string, error) {
	cur := s.root
	for i := 1; ; {
		part, end := segment(key, i)
		if end == len(key) {
			return cur, part, nil
		}
		next, ok := cur.children[part]
		if ok && next.expireNS > 0 && now >= next.expireNS {
			delete(cur.children, part)
			ok = false
		}
		if !ok {
			s.index++
			next = newDir(key[:end], s.index)
			cur.children[part] = next
		}
		if !next.dir {
			return nil, "", fmt.Errorf("not a directory: %s", next.key)
		}
		cur, i = next, end+1
	}
}

func (n *node) info(now int64) NodeInfo {
	ttl := int64(0)
	if n.expireNS > 0 {
		ttl = (n.expireNS - now) / 1_000_000_000
		if ttl < 1 {
			ttl = 1
		}
	}
	return NodeInfo{Key: n.key, Value: n.value, Dir: n.dir, TTL: ttl, Created: n.created, Modified: n.modified}
}

// childInfos lists a directory's children by name; nil when it has none.
func (n *node) childInfos(now int64) []NodeInfo {
	if len(n.children) == 0 {
		return nil
	}
	names := make([]string, 0, len(n.children))
	for name := range n.children {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]NodeInfo, len(names))
	for i, name := range names {
		out[i] = n.children[name].info(now)
	}
	return out
}
