package pipeline

import (
	"testing"
	"testing/quick"
)

// Property: Partition tiles [0, total) exactly, in order, with sizes
// differing by at most one.
func TestQuickPartitionTiles(t *testing.T) {
	f := func(rawTotal uint16, rawWorkers uint8) bool {
		total := int(rawTotal) % 5000
		workers := int(rawWorkers)%32 + 1
		prev := 0
		minSz, maxSz := 1<<30, -1
		for w := 0; w < workers; w++ {
			lo, hi := Partition(total, w, workers)
			if lo != prev || hi < lo {
				return false
			}
			sz := hi - lo
			if sz < minSz {
				minSz = sz
			}
			if sz > maxSz {
				maxSz = sz
			}
			prev = hi
		}
		return prev == total && maxSz-minSz <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: PartitionBlocks ranges are block-aligned and tile the total.
func TestQuickPartitionBlocksAligned(t *testing.T) {
	f := func(rawBlocks uint8, rawSize uint8, rawWorkers uint8) bool {
		nblocks := int(rawBlocks) % 200
		size := int(rawSize)%64 + 1
		workers := int(rawWorkers)%16 + 1
		prev := 0
		for w := 0; w < workers; w++ {
			lo, hi := PartitionBlocks(nblocks, size, w, workers)
			if lo != prev || lo%size != 0 || hi%size != 0 {
				return false
			}
			prev = hi
		}
		return prev == nblocks*size
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
