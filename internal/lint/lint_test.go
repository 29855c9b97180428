package lint_test

import (
	"testing"

	"buddy/internal/lint"
	"buddy/internal/lint/analysistest"
)

// Each analyzer runs over its fixture package(s) under testdata/src; the
// fixtures pair flagged lines (`// want`) with clean look-alikes so both
// the positive and the negative behavior are pinned.

func TestLockOrder(t *testing.T) {
	analysistest.Run(t, lint.LockOrder, "lockorder")
}

func TestHotPathAlloc(t *testing.T) {
	analysistest.Run(t, lint.HotPathAlloc, "hotpathalloc")
}

func TestSentinelErr(t *testing.T) {
	analysistest.Run(t, lint.SentinelErr, "sentinelerr")
}

func TestMustClose(t *testing.T) {
	analysistest.Run(t, lint.MustClose, "mustclose")
}
