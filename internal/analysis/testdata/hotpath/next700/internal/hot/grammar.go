package hot

// Annotation-grammar problems are attributed to the verb's owning analyzer;
// unknown and malformed directives default to hotpath. The directives below
// are standalone comments (blank-line separated from declarations) so each
// is parsed exactly once.

//next700:bogus
// want:-1 `unknown next700 directive verb "bogus"`

//next700:HotPath(x)
// want:-1 `malformed next700 directive`

//next700:allowalloc
// want:-1 `next700:allowalloc requires a reason argument`

// Verbs of retired analyzers are unknown, not silently accepted: a leftover
// waiver must be deleted, not kept as dead text.

//next700:allowretry(a continue that is not a retry)
// want:-1 `unknown next700 directive verb "allowretry"`

//next700:allowunbounded(an audited unbounded wait)
// want:-1 `unknown next700 directive verb "allowunbounded"`

//next700:cachepad(128)
// want:-1 `unknown next700 directive verb "cachepad"`

var keepVet = 0
