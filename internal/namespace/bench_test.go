package namespace

import "testing"

// benchPartition builds a deep tree with a few split points so that
// resolution walks several levels and the partition has non-trivial
// entries: /a/b/c/d with 50 files in d, /a delegated to MDS 1 and
// /a/b/c to MDS 2.
func benchPartition(b testing.TB) (*Tree, *Partition, *Inode) {
	b.Helper()
	tr := NewTree()
	a, _ := tr.Mkdir(tr.Root(), "a")
	bb, _ := tr.Mkdir(a, "b")
	cc, _ := tr.Mkdir(bb, "c")
	dd, _ := tr.Mkdir(cc, "d")
	var leaf *Inode
	for i := 0; i < 50; i++ {
		f, err := tr.Create(dd, fileName("f", i), 1)
		if err != nil {
			b.Fatal(err)
		}
		leaf = f
	}
	p := NewPartition(tr, 0)
	ea := p.Carve(a)
	p.SetAuth(ea.Key, 1)
	ec := p.Carve(cc)
	p.SetAuth(ec.Key, 2)
	return tr, p, leaf
}

// BenchmarkGoverningEntry is the per-op authority resolution of the
// serve path: a parent walk per call.
func BenchmarkGoverningEntry(b *testing.B) {
	_, p, leaf := benchPartition(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.GoverningEntry(leaf)
	}
}

// BenchmarkResolveChain allocates a fresh chain per call (the pre-PR3
// relay-path behaviour).
func BenchmarkResolveChain(b *testing.B) {
	_, p, leaf := benchPartition(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = p.ResolveChain(leaf)
	}
}

// BenchmarkResolveChainInto reuses a caller-owned buffer, the way the
// cluster relay path calls it.
func BenchmarkResolveChainInto(b *testing.B) {
	_, p, leaf := benchPartition(b)
	buf := make([]MDSID, 0, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chain, _ := p.ResolveChainInto(buf, leaf)
		buf = chain[:0]
	}
}
