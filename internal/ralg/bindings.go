package ralg

import (
	"slices"

	"mxq/internal/xqt"
)

// Typed binding constructors: each materializes an external variable
// binding as a uniform ItemVec in one slice copy, without boxing
// values through xqt.Item. These are the fast paths of the prepared-
// query API (core.Prepared / mxq.Stmt); BindItems is the generic path
// for mixed or node sequences.
//
// Every constructor copies its argument: vectors are immutable once
// built, so a binding must not alias a slice its caller still owns.

// BindInts builds an xs:integer sequence binding.
func BindInts(vs ...int64) ItemVec {
	return ItemVec{Tag: xqt.KInt, n: len(vs), I: slices.Clone(vs)}
}

// BindFloats builds an xs:double sequence binding.
func BindFloats(vs ...float64) ItemVec {
	return ItemVec{Tag: xqt.KDouble, n: len(vs), F: slices.Clone(vs)}
}

// BindStrings builds an xs:string sequence binding.
func BindStrings(vs ...string) ItemVec {
	return ItemVec{Tag: xqt.KString, n: len(vs), S: slices.Clone(vs)}
}

// BindBools builds an xs:boolean sequence binding.
func BindBools(vs ...bool) ItemVec {
	iv := zeroed[int64](nil, outRegion, len(vs)) // caller-owned: no execution, no arena
	for i, b := range vs {
		if b {
			iv[i] = 1
		}
	}
	return ItemVec{Tag: xqt.KBool, n: len(vs), I: iv}
}

// BindItems builds a binding from arbitrary items (node sequences,
// mixed-kind sequences); uniform inputs still produce a uniform vector.
func BindItems(items ...xqt.Item) ItemVec {
	return NewItemVec(items)
}
