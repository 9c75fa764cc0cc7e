//! Structural well-formedness checking for functions and modules.
//!
//! The verifier catches builder and parser mistakes before they turn into
//! bogus analysis results or interpreter panics:
//!
//! * every block is non-empty and ends with exactly one terminator,
//! * no terminator appears mid-block, every instruction is in one block,
//! * operands refer to existing, result-producing instructions whose
//!   definitions dominate their uses,
//! * branch targets / locals / globals / callees are in range,
//! * intrinsic arities match.

use crate::cfg::{Cfg, Dominators};
use crate::func::Function;
use crate::ids::{BlockId, InstId};
use crate::inst::InstKind;
use crate::module::Module;
use crate::value::Value;
use std::fmt;

/// A single verifier diagnostic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VerifyError {
    /// Function name the error occurred in.
    pub func: String,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.func, self.message)
    }
}

/// Verifies a single function. `module` enables cross-function checks
/// (callee arity); pass `None` to check a function in isolation.
pub fn verify_function(func: &Function, module: Option<&Module>) -> Vec<VerifyError> {
    check_function(func, module).err().unwrap_or_default()
}

/// [`verify_function`], returning the function's [`Cfg`] (built for the
/// dominance check) when the function is well-formed.
fn check_function(func: &Function, module: Option<&Module>) -> Result<Cfg, Vec<VerifyError>> {
    let mut errors = Vec::new();
    let mut err = |message: String| {
        errors.push(VerifyError {
            func: func.name.clone(),
            message,
        })
    };

    if func.entry.index() >= func.num_blocks() {
        err(format!("entry block {} out of range", func.entry));
        return Err(errors);
    }

    // Block structure + instruction attachment.
    let mut attached = vec![false; func.num_insts()];
    for (bid, block) in func.iter_blocks() {
        if block.insts.is_empty() {
            err(format!("block {bid} is empty"));
            continue;
        }
        for (idx, &iid) in block.insts.iter().enumerate() {
            if iid.index() >= func.num_insts() {
                err(format!("block {bid} references bogus inst {iid}"));
                continue;
            }
            if attached[iid.index()] {
                err(format!("inst {iid} appears in more than one position"));
            }
            attached[iid.index()] = true;
            let is_last = idx + 1 == block.insts.len();
            let is_term = func.inst(iid).kind.is_terminator();
            if is_last && !is_term {
                err(format!("block {bid} does not end with a terminator"));
            }
            if !is_last && is_term {
                err(format!("terminator {iid} in the middle of block {bid}"));
            }
        }
    }

    // Branch targets, locals, intrinsic arity, callee arity.
    for (iid, inst) in func.iter_insts() {
        match &inst.kind {
            InstKind::Br { target } if target.index() >= func.num_blocks() => {
                err(format!("{iid}: branch target {target} out of range"));
            }
            InstKind::CondBr {
                then_bb, else_bb, ..
            } => {
                for t in [then_bb, else_bb] {
                    if t.index() >= func.num_blocks() {
                        err(format!("{iid}: branch target {t} out of range"));
                    }
                }
            }
            InstKind::ReadLocal { local } | InstKind::WriteLocal { local, .. }
                if local.index() >= func.locals.len() =>
            {
                err(format!("{iid}: local {local} out of range"));
            }
            InstKind::CallIntrinsic { intr, args } if args.len() != intr.arity() => {
                err(format!(
                    "{iid}: intrinsic {} expects {} args, got {}",
                    intr.name(),
                    intr.arity(),
                    args.len()
                ));
            }
            InstKind::Call { callee, args } => {
                if let Some(m) = module {
                    if callee.index() >= m.funcs.len() {
                        err(format!("{iid}: callee {callee} out of range"));
                    } else {
                        let cf = m.func(*callee);
                        if args.len() != cf.num_params as usize {
                            err(format!(
                                "{iid}: call to {} expects {} args, got {}",
                                cf.name,
                                cf.num_params,
                                args.len()
                            ));
                        }
                    }
                }
            }
            _ => {}
        }
    }

    // Operand validity + def-dominates-use. The CFG/dominator build
    // below assumes the structural invariants checked above (in-range
    // branch targets, terminated blocks); on a module that already
    // failed them it could index out of bounds, so report what we have.
    if !errors.is_empty() {
        return Err(errors);
    }
    let positions = func.positions();
    let cfg = Cfg::new(func);
    let dom = Dominators::new(&cfg);
    let check_operand =
        |use_site: InstId, use_pos: (BlockId, usize), v: Value, errors: &mut Vec<VerifyError>| {
            let mut err = |message: String| {
                errors.push(VerifyError {
                    func: func.name.clone(),
                    message,
                })
            };
            match v {
                Value::Const(_) | Value::Global(_) => {}
                Value::Arg(a) => {
                    if a >= func.num_params {
                        err(format!("{use_site}: argument arg{a} out of range"));
                    }
                }
                Value::Inst(def) => {
                    if def.index() >= func.num_insts() {
                        err(format!("{use_site}: operand {def} out of range"));
                        return;
                    }
                    if !func.inst(def).kind.has_result() {
                        err(format!("{use_site}: operand {def} produces no result"));
                        return;
                    }
                    match positions[def.index()] {
                        None => err(format!("{use_site}: operand {def} is unattached")),
                        Some(dp) => {
                            let (ub, ui) = use_pos;
                            let ok = if dp.block == ub {
                                dp.index < ui
                            } else {
                                dom.dominates(dp.block, ub)
                            };
                            if !ok {
                                err(format!(
                                    "{use_site}: use of {def} not dominated by its definition"
                                ));
                            }
                        }
                    }
                }
            }
        };
    for (bid, block) in func.iter_blocks() {
        for (idx, &iid) in block.insts.iter().enumerate() {
            if iid.index() >= func.num_insts() {
                continue;
            }
            func.inst(iid)
                .kind
                .for_each_operand(|v| check_operand(iid, (bid, idx), v, &mut errors));
        }
    }

    if errors.is_empty() {
        Ok(cfg)
    } else {
        Err(errors)
    }
}

/// [`verify_module`] for gate-style callers (the fleet's pre-analysis
/// validation gate): `Ok` with the [`Cfg`] of every function, in
/// function order, for a well-formed module, otherwise every
/// diagnostic.
pub fn verify_module_checked(module: &Module) -> Result<Vec<Cfg>, Vec<VerifyError>> {
    let mut cfgs = Vec::with_capacity(module.funcs.len());
    let mut errors = Vec::new();
    for (_, func) in module.iter_funcs() {
        match check_function(func, Some(module)) {
            Ok(cfg) => cfgs.push(cfg),
            Err(e) => errors.extend(e),
        }
        // Global references in range.
        for (iid, inst) in func.iter_insts() {
            inst.kind.for_each_operand(|v| {
                if let Value::Global(g) = v {
                    if g.index() >= module.globals.len() {
                        errors.push(VerifyError {
                            func: func.name.clone(),
                            message: format!("{iid}: global {g} out of range"),
                        });
                    }
                }
            });
        }
    }
    if errors.is_empty() {
        Ok(cfgs)
    } else {
        Err(errors)
    }
}

/// Verifies every function of a module, plus global-reference ranges.
pub fn verify_module(module: &Module) -> Vec<VerifyError> {
    verify_module_checked(module).err().unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{FunctionBuilder, ModuleBuilder};
    use crate::func::{Block, Inst};

    #[test]
    fn accepts_well_formed() {
        let mut fb = FunctionBuilder::new("ok", 2);
        let s = fb.add(Value::Arg(0), Value::Arg(1));
        fb.ret(Some(s));
        assert!(verify_function(&fb.build(), None).is_empty());
    }

    #[test]
    fn rejects_empty_block() {
        let mut f = Function::new("bad", 0);
        f.blocks.push(Block::default());
        f.insts.push(Inst {
            kind: InstKind::Ret { val: None },
        });
        f.blocks[0].insts.push(InstId::new(0));
        let errs = verify_function(&f, None);
        assert!(errs.iter().any(|e| e.message.contains("is empty")));
    }

    #[test]
    fn rejects_use_of_non_result() {
        let mut f = Function::new("bad", 0);
        f.insts.push(Inst {
            kind: InstKind::Store {
                addr: Value::c(0),
                val: Value::c(0),
            },
        });
        f.insts.push(Inst {
            kind: InstKind::Ret {
                val: Some(Value::Inst(InstId::new(0))),
            },
        });
        f.blocks[0].insts = vec![InstId::new(0), InstId::new(1)];
        let errs = verify_function(&f, None);
        assert!(errs.iter().any(|e| e.message.contains("no result")));
    }

    #[test]
    fn rejects_use_before_def_same_block() {
        let mut f = Function::new("bad", 0);
        // %0 = add %1, c0 ; %1 = load c0 ; ret
        f.insts.push(Inst {
            kind: InstKind::Bin {
                op: crate::inst::BinOp::Add,
                lhs: Value::Inst(InstId::new(1)),
                rhs: Value::c(0),
            },
        });
        f.insts.push(Inst {
            kind: InstKind::Load { addr: Value::c(0) },
        });
        f.insts.push(Inst {
            kind: InstKind::Ret { val: None },
        });
        f.blocks[0].insts = vec![InstId::new(0), InstId::new(1), InstId::new(2)];
        let errs = verify_function(&f, None);
        assert!(errs.iter().any(|e| e.message.contains("not dominated")));
    }

    #[test]
    fn rejects_bad_arity_call() {
        let mut mb = ModuleBuilder::new("m");
        let callee = mb.declare_func("callee", 2);
        let mut fb = FunctionBuilder::new("caller", 0);
        fb.call(callee, vec![Value::c(1)]); // wrong arity
        fb.ret(None);
        mb.add_func(fb.build());
        let mut fb2 = FunctionBuilder::new("callee", 2);
        fb2.ret(None);
        mb.define_func(callee, fb2.build());
        let m = mb.finish();
        let errs = verify_module(&m);
        assert!(errs.iter().any(|e| e.message.contains("expects 2 args")));
    }

    #[test]
    fn rejects_bad_intrinsic_arity() {
        let mut f = Function::new("bad", 0);
        f.insts.push(Inst {
            kind: InstKind::CallIntrinsic {
                intr: crate::inst::Intrinsic::LockAcquire,
                args: vec![],
            },
        });
        f.insts.push(Inst {
            kind: InstKind::Ret { val: None },
        });
        f.blocks[0].insts = vec![InstId::new(0), InstId::new(1)];
        let errs = verify_function(&f, None);
        assert!(errs.iter().any(|e| e.message.contains("expects 1 args")));
    }

    #[test]
    fn checked_wrapper_mirrors_verify_module() {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = FunctionBuilder::new("f", 0);
        fb.ret(None);
        mb.add_func(fb.build());
        let good = mb.finish();
        let cfgs = verify_module_checked(&good).expect("well-formed");
        assert_eq!(cfgs.len(), good.funcs.len(), "one Cfg per function");

        let mut bad = Function::new("bad", 0);
        bad.blocks.push(Block::default());
        bad.insts.push(Inst {
            kind: InstKind::Ret { val: None },
        });
        bad.blocks[0].insts.push(InstId::new(0));
        let mut m = crate::module::Module::new("m");
        m.funcs.push(bad);
        let errs = verify_module_checked(&m).unwrap_err();
        assert!(!errs.is_empty());
    }

    #[test]
    fn rejects_out_of_range_global() {
        let mut mb = ModuleBuilder::new("m");
        let mut fb = FunctionBuilder::new("f", 0);
        fb.load(Value::Global(crate::ids::GlobalId::new(3)));
        fb.ret(None);
        mb.add_func(fb.build());
        let m = mb.finish();
        let errs = verify_module(&m);
        assert!(errs.iter().any(|e| e.message.contains("global g3")));
    }
}
