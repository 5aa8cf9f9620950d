// Package mmapflat declares a struct whose slices alias a read-only file
// mapping, marked //inano:mmap for the mmapalias analyzer — the fixture
// mirror of atlas.Flat.
package mmapflat

// Flat holds slices built by unsafe.Slice over a shared mapping.
type Flat struct {
	//inano:mmap
	EdgeLat []uint16
	//inano:mmap
	EdgeFrom []uint32
	Scratch  []uint16 // unmarked: writable
}

// Build constructs a Flat from private memory; writes during construction
// are allowed (fresh-local exemption).
func Build(n int) *Flat {
	f := &Flat{}
	f.EdgeLat = make([]uint16, n)
	f.EdgeFrom = make([]uint32, n)
	for i := range f.EdgeLat {
		f.EdgeLat[i] = uint16(i)
	}
	return f
}

// Rolled derives a second Flat from f the way a day roll does. The result
// is served after f's mapping is closed, so every slice must be a copy.
func Rolled(f *Flat) *Flat {
	nf := &Flat{}
	nf.EdgeLat = append([]uint16(nil), f.EdgeLat...) // a copy owns its memory
	nf.EdgeFrom = f.EdgeFrom                         // want `mmap-aliased slice f\.EdgeFrom carried into nf\.EdgeFrom`
	kept := f.EdgeLat[1:]
	nf.EdgeLat = kept // want `mmap-aliased slice kept carried into nf\.EdgeLat`
	return nf
}
