package packet

import "sync"

// A pool of full-size frame buffers, the scratch every per-packet path
// needs. It is safe for concurrent use — benchmark sweeps run
// independent simulations on several goroutines — and hands back fully
// grown buffers, so a steady-state borrow/return cycle allocates
// nothing.

var framePool = sync.Pool{
	New: func() any {
		b := make([]byte, MaxFrameLen)
		return &b
	},
}

// GetFrameBuf borrows a MaxFrameLen-capacity frame buffer. It hands out
// (and takes back) the *[]byte header rather than the slice so a borrow/
// return cycle does not allocate a fresh header for the pool.
func GetFrameBuf() *[]byte {
	b := framePool.Get().(*[]byte)
	*b = (*b)[:MaxFrameLen]
	return b
}

// PutFrameBuf returns a buffer obtained from GetFrameBuf. The caller must
// not retain any alias into it. Callers that re-sliced or grew the buffer
// should store the final slice back through the pointer first; undersized
// replacements are dropped rather than pooled.
func PutFrameBuf(b *[]byte) {
	if cap(*b) < MaxFrameLen {
		return // replaced by something smaller; let it be collected
	}
	*b = (*b)[:MaxFrameLen]
	framePool.Put(b)
}
