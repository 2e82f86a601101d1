package conformance

import (
	"repro/internal/expcuts"
	"repro/internal/flowcache"
	"repro/internal/hicuts"
	"repro/internal/hsm"
	"repro/internal/hypercuts"
	"repro/internal/linear"
	"repro/internal/rfc"
	"repro/internal/rmi"
	"repro/internal/rules"
	"repro/internal/update"
)

// Every classifier the engine serves must keep its batched path. The
// engine, the flow cache and the update manager detect ClassifyBatch
// dynamically, so a classifier that lost it would silently drop to the
// per-packet fallback and still pass every answer check; these
// assertions make that a compile error instead.
var (
	_ rules.BatchClassifier = (*expcuts.Tree)(nil)
	_ rules.BatchClassifier = (*hicuts.Tree)(nil)
	_ rules.BatchClassifier = (*hypercuts.Tree)(nil)
	_ rules.BatchClassifier = (*hsm.Classifier)(nil)
	_ rules.BatchClassifier = (*rfc.Classifier)(nil)
	_ rules.BatchClassifier = (*linear.Classifier)(nil)
	_ rules.BatchClassifier = (*rmi.Index)(nil)
	_ rules.BatchClassifier = (*update.Manager)(nil)
	_ rules.BatchClassifier = (*flowcache.Cache)(nil)
)
