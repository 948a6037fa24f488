package memory

import "testing"

// BenchmarkDPAChurn measures admit/grow/release cycles on the DPA
// allocator — the per-decode-step hot path of the serving loop.
func BenchmarkDPAChurn(b *testing.B) {
	d, err := NewDPA(64<<30, 128<<10, DefaultChunkBytes)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := i
		if err := d.Admit(id, 4096); err != nil {
			b.Fatal(err)
		}
		for t := 4096; t < 4096+64; t++ {
			if err := d.Grow(id, t); err != nil {
				b.Fatal(err)
			}
		}
		if err := d.Release(id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDPATranslate measures the VA2PA hot path the dispatcher resolves
// per MAC instruction group.
func BenchmarkDPATranslate(b *testing.B) {
	d, err := NewDPA(64<<30, 128<<10, DefaultChunkBytes)
	if err != nil {
		b.Fatal(err)
	}
	if err := d.Admit(0, 100000); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Translate(0, int64(i)%d.LiveBytes()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkNewDPA measures building one allocator for a 2 GiB pool of
// 1 MiB chunks, the per-replica cost of a large fleet. The free list is
// a watermark, so the allocations do not grow with the pool.
func BenchmarkNewDPA(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewDPA(2<<30, 128<<10, DefaultChunkBytes); err != nil {
			b.Fatal(err)
		}
	}
}
