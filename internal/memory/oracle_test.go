package memory

import "fmt"

// refDPA is the reference DPA allocator: the free list materialized as
// one slice of every free chunk ID, [nChunks-1, ..., 0] at construction,
// popped from the end and appended to on release. DPA keeps the same list
// as a fresh watermark plus the released tail; FuzzDPA checks that the
// two hand out identical chunk IDs on any operation sequence.
type refDPA struct {
	bytesPerToken int64
	chunkBytes    int64
	freeList      []ChunkID
	va2pa         map[int][]ChunkID
	liveTokens    map[int]int
	hostMessages  int
}

func newRefDPA(capacity, bytesPerToken, chunkBytes int64) *refDPA {
	n := int(capacity / chunkBytes)
	free := make([]ChunkID, n)
	for i := range free {
		free[i] = ChunkID(n - 1 - i) // pop from the end -> ascending IDs
	}
	return &refDPA{
		bytesPerToken: bytesPerToken,
		chunkBytes:    chunkBytes,
		freeList:      free,
		va2pa:         make(map[int][]ChunkID),
		liveTokens:    make(map[int]int),
	}
}

func (d *refDPA) chunksFor(tokens int) int {
	b := int64(tokens) * d.bytesPerToken
	return int((b + d.chunkBytes - 1) / d.chunkBytes)
}

func (d *refDPA) pop(n int) []ChunkID {
	out := make([]ChunkID, n)
	copy(out, d.freeList[len(d.freeList)-n:])
	d.freeList = d.freeList[:len(d.freeList)-n]
	return out
}

func (d *refDPA) Admit(reqID, tokens int) error {
	if _, ok := d.va2pa[reqID]; ok {
		return fmt.Errorf("memory: request %d already admitted", reqID)
	}
	need := d.chunksFor(tokens)
	if need > len(d.freeList) {
		return fmt.Errorf("memory: DPA pool has %d free chunks, need %d", len(d.freeList), need)
	}
	d.va2pa[reqID] = d.pop(need)
	d.liveTokens[reqID] = tokens
	d.hostMessages++
	return nil
}

func (d *refDPA) Grow(reqID, newTokens int) error {
	cur, ok := d.liveTokens[reqID]
	if !ok {
		return fmt.Errorf("memory: request %d not admitted", reqID)
	}
	if newTokens < cur {
		return fmt.Errorf("memory: request %d shrank (%d -> %d)", reqID, cur, newTokens)
	}
	if extra := d.chunksFor(newTokens) - len(d.va2pa[reqID]); extra > 0 {
		if extra > len(d.freeList) {
			return fmt.Errorf("memory: DPA pool exhausted growing request %d (need %d chunks, %d free)", reqID, extra, len(d.freeList))
		}
		d.va2pa[reqID] = append(d.va2pa[reqID], d.pop(extra)...)
		d.hostMessages++
	}
	d.liveTokens[reqID] = newTokens
	return nil
}

func (d *refDPA) Release(reqID int) error {
	chunks, ok := d.va2pa[reqID]
	if !ok {
		return fmt.Errorf("memory: request %d not admitted", reqID)
	}
	d.freeList = append(d.freeList, chunks...)
	delete(d.va2pa, reqID)
	delete(d.liveTokens, reqID)
	d.hostMessages++
	return nil
}

func (d *refDPA) CanAdmit(tokens int) bool { return d.chunksFor(tokens) <= len(d.freeList) }

// GrowBudget is the lockstep definition the Allocator contract states:
// on a copy of the allocator, grow every request one token per round and
// count the rounds that complete before some Grow fails. The IDs must be
// distinct (a repeated ID grows once per round, not twice).
func (d *refDPA) GrowBudget(reqIDs []int) int {
	if len(reqIDs) == 0 {
		return 0
	}
	c := d.clone()
	base := make([]int, len(reqIDs))
	for i, id := range reqIDs {
		base[i] = c.liveTokens[id]
	}
	for n := 1; ; n++ {
		for i, id := range reqIDs {
			if c.Grow(id, base[i]+n) != nil {
				return n - 1
			}
		}
	}
}

func (d *refDPA) clone() *refDPA {
	c := *d
	c.freeList = append([]ChunkID(nil), d.freeList...)
	c.va2pa = make(map[int][]ChunkID, len(d.va2pa))
	for id, chunks := range d.va2pa {
		c.va2pa[id] = append([]ChunkID(nil), chunks...)
	}
	c.liveTokens = make(map[int]int, len(d.liveTokens))
	for id, tok := range d.liveTokens {
		c.liveTokens[id] = tok
	}
	return &c
}

func (d *refDPA) Translate(reqID int, vaddr int64) (int64, error) {
	chunks, ok := d.va2pa[reqID]
	if !ok {
		return 0, fmt.Errorf("memory: request %d not admitted", reqID)
	}
	vc := int(vaddr / d.chunkBytes)
	if vc < 0 || vc >= len(chunks) {
		return 0, fmt.Errorf("memory: request %d vaddr %d beyond mapped region", reqID, vaddr)
	}
	return int64(chunks[vc])*d.chunkBytes + vaddr%d.chunkBytes, nil
}
