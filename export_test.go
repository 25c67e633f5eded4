package byteslice

import "io"

// Test-only exports: the fault-injection suite needs the SaveFile write
// hook (to simulate crashes at exact byte offsets).

// SetSaveWriterHook interposes fn on SaveFile's byte stream; pass nil to
// restore direct writes. Tests must restore the previous hook when done.
func SetSaveWriterHook(fn func(io.Writer) io.Writer) { saveWriterHook = fn }

// NativeKernelFormats lists the formats with an entry in the native
// kernel dispatch table, so the registry test can assert every
// dispatchable layout also has a builder and a persistence tag.
func NativeKernelFormats() []Format {
	out := make([]Format, 0, len(nativeKernels))
	for f := range nativeKernels {
		out = append(out, f)
	}
	return out
}
