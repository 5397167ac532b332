// Lifetime annotation for rill_lint's callback-lifetime rule (R6).
//
// RILL_PINNED expands to nothing — rill_lint (tools/lint) reads it from the
// raw source, never the preprocessed TU.  It declares that objects of the
// annotated class outlive every engine callback they schedule
// (platform-owned, torn down only after the event loop stops), so capturing
// raw `this` in a scheduled/completion callback is sound.  The claim is
// auditable in one place — the class declaration — instead of being
// re-asserted by a waiver comment at every call site:
//
//   class RILL_PINNED Executor { ... };
//
// Classes that are NOT pinned must either hold the returned TimerId in a
// member and cancel it in their destructor, or carry a per-site
// `// lint: lifetime-ok(<reason>)` waiver.
#pragma once

#define RILL_PINNED
