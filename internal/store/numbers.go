package store

import (
	"math"
	"sync/atomic"

	"mxq/internal/xqt"
)

// numMemo keeps the xs:double of every value slot of one immutable
// container — each text of Texts and each attribute value of AttrVal —
// parsed once, on first use, so repeated executions read a number
// instead of parsing the same string again. It is paged: a page of slots
// is allocated when a slot on it is first read, so a document whose
// values are never used as numbers costs one pointer per page. Readers
// fill slots concurrently with atomic stores and no lock: two that race
// on a slot parse the same string and store the same bits.
type numMemo struct {
	texts, attrs memoPages
}

const memoPageBits = 12 // 4 096 slots (32 KB) a page

type memoPage [1 << memoPageBits]atomic.Uint64

type memoPages []atomic.Pointer[memoPage]

// unparsed is a signalling NaN, a bit pattern no parse returns. A slot
// holds a number's bits XORed with it, so the zeroed slots of a fresh
// page all read "not parsed yet".
const unparsed = 0x7FF0000000000001

// over returns the memo of container c, whose values extend those of
// this memo's container: it shares every page but the last, which those
// values may end inside — there, c may hold a different string in a slot,
// and so may a second container extending the same values.
func (m numMemo) over(c *Container) numMemo {
	return numMemo{texts: m.texts.over(len(c.Texts)), attrs: m.attrs.over(len(c.AttrVal))}
}

func (m memoPages) over(n int) memoPages {
	out := make(memoPages, (n+1<<memoPageBits-1)>>memoPageBits)
	for i := 0; i < len(m)-1 && i < len(out); i++ {
		out[i].Store(m[i].Load())
	}
	return out
}

// number returns xqt.ParseDouble(s) for slot i, whose value is s, parsing
// it only the first time any reader asks. A slot past the memo — every
// slot of a container without one — is parsed each time.
func (m memoPages) number(i int32, s string) float64 {
	if int(i>>memoPageBits) >= len(m) {
		return xqt.ParseDouble(s)
	}
	ref := &m[i>>memoPageBits]
	pg := ref.Load()
	if pg == nil { // the first reader of the page allocates it
		ref.CompareAndSwap(nil, new(memoPage))
		pg = ref.Load()
	}
	slot := &pg[i&(1<<memoPageBits-1)]
	if b := slot.Load(); b != 0 {
		return math.Float64frombits(b ^ unparsed)
	}
	f := xqt.ParseDouble(s)
	slot.Store(math.Float64bits(f) ^ unparsed)
	return f
}
