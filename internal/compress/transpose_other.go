//go:build !amd64

package compress

// bpcFront is BPC's encode pre-pass; see bpcFrontGo.
//
//buddy:hotpath
func bpcFront(entry *[EntryBytes]byte, rows *[entryWordCount]uint64) (p32 uint32, orE, andE, orD uint64) {
	return bpcFrontGo(entry, rows)
}

// bpcBack is BPC's dense decode rebuild; see bpcBackGo.
//
//buddy:hotpath
func bpcBack(planes *[bpcPlanes]uint32, base uint32, dst *[EntryBytes]byte) {
	bpcBackGo(planes, base, dst)
}
