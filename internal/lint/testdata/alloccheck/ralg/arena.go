// Fixture: arena*.go is where the slabs are made; the column-make rule
// does not apply here.
package ralg

type regionID uint8

const (
	outRegion regionID = iota
	scratchRegion
)

func (e *Exec) bump(words int) []uint64 { return make([]uint64, words) }

func dirty[T any](e *Exec, rg regionID, n int) []T  { return make([]T, n) }
func zeroed[T any](e *Exec, rg regionID, n int) []T { return make([]T, n) }
func grown[T any](e *Exec, s []T, need int) []T     { return append(s, make([]T, need)...)[:len(s)] }
func settle[T any](e *Exec, parts ...[]T) []T       { return parts[0] }
