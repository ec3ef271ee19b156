// Package rbtree implements the red-black tree CFS uses as its per-core
// runqueue, ordered by (vruntime, tiebreak id). Like the kernel's
// rb_leftmost-cached tree, the minimum element is available in O(1), which
// is the only lookup CFS's pick_next path performs — and like the kernel's
// rb_node, the tree is intrusive: the linkage lives in the item itself, so
// inserting allocates nothing and deleting needs no lookup.
package rbtree

// Item is an element stored in the tree. Less must define a strict weak
// ordering; equal items are permitted and ordered arbitrarily but stably by
// insertion structure. An item carries its own linkage: embed a Node in the
// item's struct and RBNode comes with it. One Node links an item into at
// most one tree at a time.
type Item interface {
	Less(than Item) bool
	RBNode() *Node
}

type color bool

const (
	red   color = false
	black color = true
)

// Node is the tree linkage embedded in every item. The zero value is an
// unlinked node.
type Node struct {
	item                Item
	left, right, parent *Node
	// tree is the tree the node is linked into, nil while unlinked: the
	// membership test behind Contains and the double-insert / absent-delete
	// panics.
	tree  *Tree
	color color
}

// RBNode returns n itself; a struct embedding Node implements Item's
// linkage half through it.
func (n *Node) RBNode() *Node { return n }

// Tree is a red-black tree with a cached leftmost node. The zero value is
// an empty tree ready to use.
type Tree struct {
	root     *Node
	leftmost *Node
	size     int
}

// Len returns the number of items in the tree.
func (t *Tree) Len() int { return t.size }

// Min returns the smallest item, or nil if the tree is empty.
func (t *Tree) Min() Item {
	if t.leftmost == nil {
		return nil
	}
	return t.leftmost.item
}

// Contains reports whether item is in the tree.
func (t *Tree) Contains(item Item) bool { return item.RBNode().tree == t }

// Insert adds item to the tree. Inserting an item that is already in a tree
// panics: the schedulers must never double-enqueue a thread, and catching it
// here turns a subtle accounting bug into a loud failure.
func (t *Tree) Insert(item Item) {
	n := item.RBNode()
	if n.tree != nil {
		panic("rbtree: duplicate insert")
	}
	*n = Node{item: item, tree: t, color: red}
	t.size++

	if t.root == nil {
		n.color = black
		t.root = n
		t.leftmost = n
		return
	}
	cur := t.root
	wasLeftmostPath := true
	for {
		if item.Less(cur.item) {
			if cur.left == nil {
				cur.left = n
				n.parent = cur
				break
			}
			cur = cur.left
		} else {
			wasLeftmostPath = false
			if cur.right == nil {
				cur.right = n
				n.parent = cur
				break
			}
			cur = cur.right
		}
	}
	if wasLeftmostPath {
		t.leftmost = n
	}
	t.fixInsert(n)
}

// Delete removes item from the tree. Deleting an item that is not in this
// tree panics for the same reason Insert does.
func (t *Tree) Delete(item Item) {
	n := item.RBNode()
	if n.tree != t {
		panic("rbtree: delete of absent item")
	}
	t.size--
	if t.leftmost == n {
		t.leftmost = t.successor(n)
	}
	t.deleteNode(n)
	*n = Node{}
}

// PopMin removes and returns the smallest item, or nil if empty.
func (t *Tree) PopMin() Item {
	if t.leftmost == nil {
		return nil
	}
	it := t.leftmost.item
	t.Delete(it)
	return it
}

// Ascend calls fn on each item in ascending order until fn returns false.
func (t *Tree) Ascend(fn func(Item) bool) {
	for n := t.leftmost; n != nil; n = t.successor(n) {
		if !fn(n.item) {
			return
		}
	}
}

// Items returns all items in ascending order.
func (t *Tree) Items() []Item {
	out := make([]Item, 0, t.size)
	t.Ascend(func(it Item) bool {
		out = append(out, it)
		return true
	})
	return out
}

func (t *Tree) successor(n *Node) *Node {
	if n.right != nil {
		n = n.right
		for n.left != nil {
			n = n.left
		}
		return n
	}
	for n.parent != nil && n == n.parent.right {
		n = n.parent
	}
	return n.parent
}

func (t *Tree) rotateLeft(x *Node) {
	y := x.right
	x.right = y.left
	if y.left != nil {
		y.left.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == nil:
		t.root = y
	case x == x.parent.left:
		x.parent.left = y
	default:
		x.parent.right = y
	}
	y.left = x
	x.parent = y
}

func (t *Tree) rotateRight(x *Node) {
	y := x.left
	x.left = y.right
	if y.right != nil {
		y.right.parent = x
	}
	y.parent = x.parent
	switch {
	case x.parent == nil:
		t.root = y
	case x == x.parent.right:
		x.parent.right = y
	default:
		x.parent.left = y
	}
	y.right = x
	x.parent = y
}

func (t *Tree) fixInsert(z *Node) {
	for z.parent != nil && z.parent.color == red {
		gp := z.parent.parent
		if z.parent == gp.left {
			u := gp.right
			if u != nil && u.color == red {
				z.parent.color = black
				u.color = black
				gp.color = red
				z = gp
				continue
			}
			if z == z.parent.right {
				z = z.parent
				t.rotateLeft(z)
			}
			z.parent.color = black
			gp.color = red
			t.rotateRight(gp)
		} else {
			u := gp.left
			if u != nil && u.color == red {
				z.parent.color = black
				u.color = black
				gp.color = red
				z = gp
				continue
			}
			if z == z.parent.left {
				z = z.parent
				t.rotateRight(z)
			}
			z.parent.color = black
			gp.color = red
			t.rotateLeft(gp)
		}
	}
	t.root.color = black
}

func (t *Tree) transplant(u, v *Node) {
	switch {
	case u.parent == nil:
		t.root = v
	case u == u.parent.left:
		u.parent.left = v
	default:
		u.parent.right = v
	}
	if v != nil {
		v.parent = u.parent
	}
}

func (t *Tree) deleteNode(z *Node) {
	y := z
	yColor := y.color
	var x *Node
	var xParent *Node
	switch {
	case z.left == nil:
		x = z.right
		xParent = z.parent
		t.transplant(z, z.right)
	case z.right == nil:
		x = z.left
		xParent = z.parent
		t.transplant(z, z.left)
	default:
		y = z.right
		for y.left != nil {
			y = y.left
		}
		yColor = y.color
		x = y.right
		if y.parent == z {
			xParent = y
		} else {
			xParent = y.parent
			t.transplant(y, y.right)
			y.right = z.right
			y.right.parent = y
		}
		t.transplant(z, y)
		y.left = z.left
		y.left.parent = y
		y.color = z.color
	}
	if yColor == black {
		t.fixDelete(x, xParent)
	}
}

func (t *Tree) fixDelete(x *Node, parent *Node) {
	for x != t.root && isBlack(x) {
		if parent == nil {
			break
		}
		if x == parent.left {
			w := parent.right
			if w != nil && w.color == red {
				w.color = black
				parent.color = red
				t.rotateLeft(parent)
				w = parent.right
			}
			if w == nil {
				x = parent
				parent = x.parent
				continue
			}
			if isBlack(w.left) && isBlack(w.right) {
				w.color = red
				x = parent
				parent = x.parent
				continue
			}
			if isBlack(w.right) {
				if w.left != nil {
					w.left.color = black
				}
				w.color = red
				t.rotateRight(w)
				w = parent.right
			}
			w.color = parent.color
			parent.color = black
			if w.right != nil {
				w.right.color = black
			}
			t.rotateLeft(parent)
			x = t.root
			parent = nil
		} else {
			w := parent.left
			if w != nil && w.color == red {
				w.color = black
				parent.color = red
				t.rotateRight(parent)
				w = parent.left
			}
			if w == nil {
				x = parent
				parent = x.parent
				continue
			}
			if isBlack(w.right) && isBlack(w.left) {
				w.color = red
				x = parent
				parent = x.parent
				continue
			}
			if isBlack(w.left) {
				if w.right != nil {
					w.right.color = black
				}
				w.color = red
				t.rotateLeft(w)
				w = parent.left
			}
			w.color = parent.color
			parent.color = black
			if w.left != nil {
				w.left.color = black
			}
			t.rotateRight(parent)
			x = t.root
			parent = nil
		}
	}
	if x != nil {
		x.color = black
	}
}

func isBlack(n *Node) bool { return n == nil || n.color == black }

// checkInvariants validates red-black properties; exported to the test via
// export_test.go.
func (t *Tree) checkInvariants() error {
	if t.root == nil {
		if t.size != 0 || t.leftmost != nil {
			return errInvariant("empty tree with nonzero size or leftmost")
		}
		return nil
	}
	if t.root.color != black {
		return errInvariant("root is red")
	}
	// Leftmost cache must point at the actual minimum.
	m := t.root
	for m.left != nil {
		m = m.left
	}
	if m != t.leftmost {
		return errInvariant("leftmost cache stale")
	}
	_, err := t.checkNode(t.root)
	if err != nil {
		return err
	}
	// Ordering: in-order traversal must be non-decreasing.
	var prev Item
	bad := false
	t.Ascend(func(it Item) bool {
		if prev != nil && it.Less(prev) {
			bad = true
			return false
		}
		prev = it
		return true
	})
	if bad {
		return errInvariant("in-order traversal out of order")
	}
	return nil
}

type errInvariant string

func (e errInvariant) Error() string { return "rbtree: " + string(e) }

func (t *Tree) checkNode(n *Node) (blackHeight int, err error) {
	if n == nil {
		return 1, nil
	}
	if n.tree != t || n.item == nil || n.item.RBNode() != n {
		return 0, errInvariant("node not linked to its tree and item")
	}
	if n.color == red {
		if !isBlack(n.left) || !isBlack(n.right) {
			return 0, errInvariant("red node with red child")
		}
	}
	if n.left != nil && n.left.parent != n {
		return 0, errInvariant("broken parent link (left)")
	}
	if n.right != nil && n.right.parent != n {
		return 0, errInvariant("broken parent link (right)")
	}
	lh, err := t.checkNode(n.left)
	if err != nil {
		return 0, err
	}
	rh, err := t.checkNode(n.right)
	if err != nil {
		return 0, err
	}
	if lh != rh {
		return 0, errInvariant("black-height mismatch")
	}
	if n.color == black {
		lh++
	}
	return lh, nil
}
