#include "textflag.h"

// Bodyless declarations of hotloop.go, assembled for every architecture.

// func asmLeaf()
TEXT ·asmLeaf(SB), NOSPLIT, $0-0
	RET

// func asmUnannotated()
TEXT ·asmUnannotated(SB), NOSPLIT, $0-0
	RET
