//go:build !amd64

package compress

// useGFNI is false off amd64: only the pure-Go kernels exist there.
const useGFNI = false

// bpcFront is BPC's encode pre-pass; see bpcFrontGo.
//
//buddy:hotpath
func bpcFront(entry *[EntryBytes]byte, codes *bpcCodes) (p32 uint32, orE, andE, orD uint64, total int) {
	return bpcFrontGo(entry, codes)
}

// bpcBack is BPC's dense decode rebuild; see bpcBackGo.
//
//buddy:hotpath
func bpcBack(planes *[bpcPlanes]uint32, base uint32, dst *[EntryBytes]byte) {
	bpcBackGo(planes, base, dst)
}
