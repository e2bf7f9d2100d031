//! Golden plans of the 88 pool requests through `Optimizer::optimize`.
//!
//! The lines below were recorded at the commit *before* the single-root
//! and the multi-root pipeline were folded into one body (PR 23): the
//! one-root projection of the shared pipeline must return the plan, the
//! saturation facts and the cost bits the hand-written single-root copy
//! returned. Each line is the request (`program.statement@sparsity of X`,
//! the ledger's pool order), a hash of the plan text, the five saturation
//! facts, the stop reason, `cost_before` / `cost_after` as IEEE-754 bits,
//! `fell_back` and `size_polymorphic`.
//!
//! `GOLDEN_WORKLOAD` pins the other half of the saturation loop — region
//! freezing and per-region sampling, which only multi-root runs reach:
//! one line per §4.2 program through `Optimizer::optimize_workload`,
//! recorded at the commit before `Runner::run` was split into named
//! phases (PR 24). The plan hash covers every root's text, in order.
//!
//! Re-recorded since, when translation became capture-free (no index
//! free in one operand of a join bound by a `Σ` in the other): the four
//! `ALS.GV` lines (`cost_after` 22408 → 2408, 21768 → 1768 at 0.001) and
//! the `ALS` workload line (53450 → 33451) found cheaper plans; the
//! `PNMF.H` lines and the `PNMF` workload line kept their plans and cost
//! bits, only their saturation facts moved.
//!
//! Re-recorded again when each rule's search began to stop at its match
//! cap: 32 of the 88 statement lines and all 5 workload lines moved their
//! saturation facts; the `GLM.obj` lines (at every sparsity) and the
//! `ALS`, `GLM` and `MLR` workload lines extracted another plan at the
//! same `cost_after` bits. No cost changed.

use spores_core::Optimizer;
use spores_ir::Symbol;
use spores_ml::runner::{statement_requests, workload_bundle, workload_optimizer_config};
use spores_ml::workloads;

const GOLDEN: &[&str] = &[
    "ALS.GU@0.001 plan=33c9c824df3daef9 iterations=10 e_nodes=59 e_classes=30 candidates=781 matches=469 stop=Some(Saturated) before=40e4534000000000 after=40aa500000000000 fell_back=false size_polymorphic=true",
    "ALS.U@0.001 plan=2aa767d120ae12a3 iterations=5 e_nodes=23 e_classes=13 candidates=184 matches=94 stop=Some(Saturated) before=40b2c30000000000 after=40a9040000000000 fell_back=false size_polymorphic=true",
    "ALS.GV@0.001 plan=8a74f0f1dafa2d3e iterations=9 e_nodes=59 e_classes=30 candidates=785 matches=479 stop=Some(Saturated) before=40e3ef4000000000 after=409ba00000000000 fell_back=false size_polymorphic=true",
    "ALS.V@0.001 plan=c01181153ae4f341 iterations=5 e_nodes=23 e_classes=13 candidates=184 matches=94 stop=Some(Saturated) before=40a2c60000000000 after=4099080000000000 fell_back=false size_polymorphic=true",
    "ALS.loss@0.001 plan=972b30c9e040a7c6 iterations=100 e_nodes=1979 e_classes=215 candidates=87486 matches=70400 stop=Some(IterationLimit(100)) before=40f3950000000000 after=40d46ac000000000 fell_back=false size_polymorphic=true",
    "PNMF.H@0.001 plan=7ac9ea2e14f20f11 iterations=12 e_nodes=212 e_classes=47 candidates=2167 matches=2842 stop=Some(Saturated) before=40e1cf8000000000 after=40e1a94000000000 fell_back=false size_polymorphic=true",
    "PNMF.W@0.001 plan=26ac1e3689919300 iterations=14 e_nodes=212 e_classes=47 candidates=2548 matches=3578 stop=Some(Saturated) before=40e1cf8000000000 after=40e1a94000000000 fell_back=false size_polymorphic=true",
    "PNMF.obj@0.001 plan=6c07fa7320f32888 iterations=7 e_nodes=71 e_classes=35 candidates=789 matches=499 stop=Some(Saturated) before=40ea774000000000 after=40e19d8000000000 fell_back=false size_polymorphic=true",
    "GLM.P@0.001 plan=540dc687b3a6e1db iterations=5 e_nodes=35 e_classes=19 candidates=327 matches=178 stop=Some(Saturated) before=4089f80000000000 after=406b600000000000 fell_back=false size_polymorphic=true",
    "GLM.G@0.001 plan=914b7dc4a85c0a88 iterations=9 e_nodes=53 e_classes=28 candidates=707 matches=449 stop=Some(Saturated) before=4078e00000000000 after=405fc00000000000 fell_back=false size_polymorphic=true",
    "GLM.w@0.001 plan=b5e998166909020c iterations=5 e_nodes=23 e_classes=13 candidates=184 matches=94 stop=Some(Saturated) before=405ec00000000000 after=4054800000000000 fell_back=false size_polymorphic=true",
    "GLM.obj@0.001 plan=23e554623141530a iterations=31 e_nodes=633 e_classes=86 candidates=14207 matches=20765 stop=Some(Saturated) before=4081200000000000 after=407c600000000000 fell_back=false size_polymorphic=true",
    "SVM.out@0.001 plan=a1b91ba283c0998b iterations=7 e_nodes=77 e_classes=27 candidates=669 matches=744 stop=Some(Saturated) before=406da00000000000 after=406da00000000000 fell_back=false size_polymorphic=true",
    "SVM.sv@0.001 plan=f632e6b07bffede1 iterations=1 e_nodes=6 e_classes=6 candidates=0 matches=0 stop=Some(Saturated) before=4069200000000000 after=4069200000000000 fell_back=false size_polymorphic=true",
    "SVM.G@0.001 plan=2512ecd836e903cc iterations=13 e_nodes=203 e_classes=45 candidates=2511 matches=3357 stop=Some(Saturated) before=407ff00000000000 after=405fc00000000000 fell_back=false size_polymorphic=true",
    "SVM.w@0.001 plan=b5e998166909020c iterations=5 e_nodes=23 e_classes=13 candidates=184 matches=94 stop=Some(Saturated) before=405ec00000000000 after=4054800000000000 fell_back=false size_polymorphic=true",
    "SVM.obj@0.001 plan=381785c985e9cd0e iterations=9 e_nodes=106 e_classes=34 candidates=1258 matches=1508 stop=Some(Saturated) before=407c500000000000 after=407c500000000000 fell_back=false size_polymorphic=true",
    "MLR.P@0.001 plan=540dc687b3a6e1db iterations=5 e_nodes=35 e_classes=19 candidates=327 matches=178 stop=Some(Saturated) before=4089980000000000 after=406a600000000000 fell_back=false size_polymorphic=true",
    "MLR.D@0.001 plan=5426b03bb085c1b0 iterations=6 e_nodes=52 e_classes=20 candidates=462 matches=415 stop=Some(Saturated) before=406c200000000000 after=4038000000000000 fell_back=false size_polymorphic=true",
    "MLR.G@0.001 plan=d5762818f4d45e90 iterations=3 e_nodes=13 e_classes=11 candidates=65 matches=17 stop=Some(Saturated) before=404f800000000000 after=404f800000000000 fell_back=false size_polymorphic=true",
    "MLR.w@0.001 plan=b5e998166909020c iterations=5 e_nodes=23 e_classes=13 candidates=184 matches=94 stop=Some(Saturated) before=404f800000000000 after=4045000000000000 fell_back=false size_polymorphic=true",
    "MLR.obj@0.001 plan=357d4a7f16ac770a iterations=28 e_nodes=533 e_classes=66 candidates=11339 matches=17246 stop=Some(Saturated) before=407fe00000000000 after=407a900000000000 fell_back=false size_polymorphic=true",
    "ALS.GU@0.01 plan=33c9c824df3daef9 iterations=10 e_nodes=59 e_classes=30 candidates=781 matches=469 stop=Some(Saturated) before=40e469c000000000 after=40b2c80000000000 fell_back=false size_polymorphic=true",
    "ALS.U@0.01 plan=2aa767d120ae12a3 iterations=5 e_nodes=23 e_classes=13 candidates=184 matches=94 stop=Some(Saturated) before=40b2c30000000000 after=40a9040000000000 fell_back=false size_polymorphic=true",
    "ALS.GV@0.01 plan=8a74f0f1dafa2d3e iterations=9 e_nodes=59 e_classes=30 candidates=785 matches=479 stop=Some(Saturated) before=40e405c000000000 after=40a2d00000000000 fell_back=false size_polymorphic=true",
    "ALS.V@0.01 plan=c01181153ae4f341 iterations=5 e_nodes=23 e_classes=13 candidates=184 matches=94 stop=Some(Saturated) before=40a2c60000000000 after=4099080000000000 fell_back=false size_polymorphic=true",
    "ALS.loss@0.01 plan=d1e542acefdc4e6f iterations=100 e_nodes=1979 e_classes=215 candidates=87486 matches=70400 stop=Some(IterationLimit(100)) before=40f3950000000000 after=40d4edc000000000 fell_back=false size_polymorphic=true",
    "PNMF.H@0.01 plan=7ac9ea2e14f20f11 iterations=12 e_nodes=212 e_classes=47 candidates=2167 matches=2842 stop=Some(Saturated) before=40e315c000000000 after=40e20f4000000000 fell_back=false size_polymorphic=true",
    "PNMF.W@0.01 plan=26ac1e3689919300 iterations=14 e_nodes=212 e_classes=47 candidates=2548 matches=3578 stop=Some(Saturated) before=40e36fc000000000 after=40e22d4000000000 fell_back=false size_polymorphic=true",
    "PNMF.obj@0.01 plan=6c07fa7320f32888 iterations=7 e_nodes=71 e_classes=35 candidates=789 matches=499 stop=Some(Saturated) before=40ea9c0000000000 after=40e1be8000000000 fell_back=false size_polymorphic=true",
    "GLM.P@0.01 plan=540dc687b3a6e1db iterations=5 e_nodes=35 e_classes=19 candidates=327 matches=178 stop=Some(Saturated) before=40905c0000000000 after=4076b00000000000 fell_back=false size_polymorphic=true",
    "GLM.G@0.01 plan=2d3008934ed4b464 iterations=9 e_nodes=53 e_classes=28 candidates=707 matches=449 stop=Some(Saturated) before=407f600000000000 after=4079800000000000 fell_back=false size_polymorphic=true",
    "GLM.w@0.01 plan=b5e998166909020c iterations=5 e_nodes=23 e_classes=13 candidates=184 matches=94 stop=Some(Saturated) before=405ec00000000000 after=4054800000000000 fell_back=false size_polymorphic=true",
    "GLM.obj@0.01 plan=23e554623141530a iterations=31 e_nodes=633 e_classes=86 candidates=14207 matches=20765 stop=Some(Saturated) before=4081200000000000 after=407c600000000000 fell_back=false size_polymorphic=true",
    "SVM.out@0.01 plan=a1b91ba283c0998b iterations=7 e_nodes=77 e_classes=27 candidates=669 matches=744 stop=Some(Saturated) before=4080680000000000 after=407e500000000000 fell_back=false size_polymorphic=true",
    "SVM.sv@0.01 plan=f632e6b07bffede1 iterations=1 e_nodes=6 e_classes=6 candidates=0 matches=0 stop=Some(Saturated) before=4069200000000000 after=4069200000000000 fell_back=false size_polymorphic=true",
    "SVM.G@0.01 plan=2512ecd836e903cc iterations=13 e_nodes=203 e_classes=45 candidates=2511 matches=3357 stop=Some(Saturated) before=4084380000000000 after=4079700000000000 fell_back=false size_polymorphic=true",
    "SVM.w@0.01 plan=b5e998166909020c iterations=5 e_nodes=23 e_classes=13 candidates=184 matches=94 stop=Some(Saturated) before=405ec00000000000 after=4054800000000000 fell_back=false size_polymorphic=true",
    "SVM.obj@0.01 plan=381785c985e9cd0e iterations=9 e_nodes=106 e_classes=34 candidates=1258 matches=1508 stop=Some(Saturated) before=407c500000000000 after=407c500000000000 fell_back=false size_polymorphic=true",
    "MLR.P@0.01 plan=540dc687b3a6e1db iterations=5 e_nodes=35 e_classes=19 candidates=327 matches=178 stop=Some(Saturated) before=408cf80000000000 after=4071b00000000000 fell_back=false size_polymorphic=true",
    "MLR.D@0.01 plan=5426b03bb085c1b0 iterations=6 e_nodes=52 e_classes=20 candidates=462 matches=415 stop=Some(Saturated) before=4079500000000000 after=4069800000000000 fell_back=false size_polymorphic=true",
    "MLR.G@0.01 plan=d5762818f4d45e90 iterations=3 e_nodes=13 e_classes=11 candidates=65 matches=17 stop=Some(Saturated) before=404f800000000000 after=404f800000000000 fell_back=false size_polymorphic=true",
    "MLR.w@0.01 plan=b5e998166909020c iterations=5 e_nodes=23 e_classes=13 candidates=184 matches=94 stop=Some(Saturated) before=404f800000000000 after=4045000000000000 fell_back=false size_polymorphic=true",
    "MLR.obj@0.01 plan=357d4a7f16ac770a iterations=28 e_nodes=533 e_classes=66 candidates=11339 matches=17246 stop=Some(Saturated) before=407fe00000000000 after=407a900000000000 fell_back=false size_polymorphic=true",
    "ALS.GU@0.1 plan=33c9c824df3daef9 iterations=10 e_nodes=59 e_classes=30 candidates=781 matches=469 stop=Some(Saturated) before=40e54ac000000000 after=40b2c80000000000 fell_back=false size_polymorphic=true",
    "ALS.U@0.1 plan=2aa767d120ae12a3 iterations=5 e_nodes=23 e_classes=13 candidates=184 matches=94 stop=Some(Saturated) before=40b2c30000000000 after=40a9040000000000 fell_back=false size_polymorphic=true",
    "ALS.GV@0.1 plan=8a74f0f1dafa2d3e iterations=9 e_nodes=59 e_classes=30 candidates=785 matches=479 stop=Some(Saturated) before=40e4e6c000000000 after=40a2d00000000000 fell_back=false size_polymorphic=true",
    "ALS.V@0.1 plan=c01181153ae4f341 iterations=5 e_nodes=23 e_classes=13 candidates=184 matches=94 stop=Some(Saturated) before=40a2c60000000000 after=4099080000000000 fell_back=false size_polymorphic=true",
    "ALS.loss@0.1 plan=e8f2f8e1e05ed533 iterations=100 e_nodes=1979 e_classes=215 candidates=87486 matches=70400 stop=Some(IterationLimit(100)) before=40f3950000000000 after=40d72ec000000000 fell_back=false size_polymorphic=true",
    "PNMF.H@0.1 plan=7ac9ea2e14f20f11 iterations=12 e_nodes=212 e_classes=47 candidates=2167 matches=2842 stop=Some(Saturated) before=40e3e04000000000 after=40e20f4000000000 fell_back=false size_polymorphic=true",
    "PNMF.W@0.1 plan=26ac1e3689919300 iterations=14 e_nodes=212 e_classes=47 candidates=2548 matches=3578 stop=Some(Saturated) before=40e43a4000000000 after=40e22d4000000000 fell_back=false size_polymorphic=true",
    "PNMF.obj@0.1 plan=6c07fa7320f32888 iterations=7 e_nodes=71 e_classes=35 candidates=789 matches=499 stop=Some(Saturated) before=40eb668000000000 after=40e2890000000000 fell_back=false size_polymorphic=true",
    "GLM.P@0.1 plan=540dc687b3a6e1db iterations=5 e_nodes=35 e_classes=19 candidates=327 matches=178 stop=Some(Saturated) before=409f5c0000000000 after=4092cc0000000000 fell_back=false size_polymorphic=true",
    "GLM.G@0.1 plan=36377f90ce24ccd8 iterations=9 e_nodes=53 e_classes=28 candidates=707 matches=449 stop=Some(Saturated) before=4093180000000000 after=4093180000000000 fell_back=false size_polymorphic=true",
    "GLM.w@0.1 plan=b5e998166909020c iterations=5 e_nodes=23 e_classes=13 candidates=184 matches=94 stop=Some(Saturated) before=405ec00000000000 after=4054800000000000 fell_back=false size_polymorphic=true",
    "GLM.obj@0.1 plan=23e554623141530a iterations=31 e_nodes=633 e_classes=86 candidates=14207 matches=20765 stop=Some(Saturated) before=4081200000000000 after=407c600000000000 fell_back=false size_polymorphic=true",
    "SVM.out@0.1 plan=a1b91ba283c0998b iterations=7 e_nodes=77 e_classes=27 candidates=669 matches=744 stop=Some(Saturated) before=4099140000000000 after=4096940000000000 fell_back=false size_polymorphic=true",
    "SVM.sv@0.1 plan=f632e6b07bffede1 iterations=1 e_nodes=6 e_classes=6 candidates=0 matches=0 stop=Some(Saturated) before=4069200000000000 after=4069200000000000 fell_back=false size_polymorphic=true",
    "SVM.G@0.1 plan=7afd789562ce19b0 iterations=13 e_nodes=203 e_classes=45 candidates=2511 matches=3357 stop=Some(Saturated) before=40955c0000000000 after=40955c0000000000 fell_back=false size_polymorphic=true",
    "SVM.w@0.1 plan=b5e998166909020c iterations=5 e_nodes=23 e_classes=13 candidates=184 matches=94 stop=Some(Saturated) before=405ec00000000000 after=4054800000000000 fell_back=false size_polymorphic=true",
    "SVM.obj@0.1 plan=381785c985e9cd0e iterations=9 e_nodes=106 e_classes=34 candidates=1258 matches=1508 stop=Some(Saturated) before=407c500000000000 after=407c500000000000 fell_back=false size_polymorphic=true",
    "MLR.P@0.1 plan=540dc687b3a6e1db iterations=5 e_nodes=35 e_classes=19 candidates=327 matches=178 stop=Some(Saturated) before=40991c0000000000 after=4089180000000000 fell_back=false size_polymorphic=true",
    "MLR.D@0.1 plan=93fe59fdd08072e4 iterations=6 e_nodes=52 e_classes=20 candidates=462 matches=415 stop=Some(Saturated) before=40a13a0000000000 after=4082d00000000000 fell_back=false size_polymorphic=true",
    "MLR.G@0.1 plan=d5762818f4d45e90 iterations=3 e_nodes=13 e_classes=11 candidates=65 matches=17 stop=Some(Saturated) before=404f800000000000 after=404f800000000000 fell_back=false size_polymorphic=true",
    "MLR.w@0.1 plan=b5e998166909020c iterations=5 e_nodes=23 e_classes=13 candidates=184 matches=94 stop=Some(Saturated) before=404f800000000000 after=4045000000000000 fell_back=false size_polymorphic=true",
    "MLR.obj@0.1 plan=357d4a7f16ac770a iterations=28 e_nodes=533 e_classes=66 candidates=11339 matches=17246 stop=Some(Saturated) before=407fe00000000000 after=407a900000000000 fell_back=false size_polymorphic=true",
    "ALS.GU@1 plan=33c9c824df3daef9 iterations=10 e_nodes=59 e_classes=30 candidates=781 matches=469 stop=Some(Saturated) before=40ee14c000000000 after=40b2c80000000000 fell_back=false size_polymorphic=true",
    "ALS.U@1 plan=2aa767d120ae12a3 iterations=5 e_nodes=23 e_classes=13 candidates=184 matches=94 stop=Some(Saturated) before=40b2c30000000000 after=40a9040000000000 fell_back=false size_polymorphic=true",
    "ALS.GV@1 plan=8a74f0f1dafa2d3e iterations=9 e_nodes=59 e_classes=30 candidates=785 matches=479 stop=Some(Saturated) before=40edb0c000000000 after=40a2d00000000000 fell_back=false size_polymorphic=true",
    "ALS.V@1 plan=c01181153ae4f341 iterations=5 e_nodes=23 e_classes=13 candidates=184 matches=94 stop=Some(Saturated) before=40a2c60000000000 after=4099080000000000 fell_back=false size_polymorphic=true",
    "ALS.loss@1 plan=e8f2f8e1e05ed533 iterations=100 e_nodes=1979 e_classes=215 candidates=87486 matches=70400 stop=Some(IterationLimit(100)) before=40f3950000000000 after=40e4616000000000 fell_back=false size_polymorphic=true",
    "PNMF.H@1 plan=7ac9ea2e14f20f11 iterations=12 e_nodes=212 e_classes=47 candidates=2167 matches=2842 stop=Some(Saturated) before=40ebc94000000000 after=40e20f4000000000 fell_back=false size_polymorphic=true",
    "PNMF.W@1 plan=26ac1e3689919300 iterations=14 e_nodes=212 e_classes=47 candidates=2548 matches=3578 stop=Some(Saturated) before=40ec234000000000 after=40e22d4000000000 fell_back=false size_polymorphic=true",
    "PNMF.obj@1 plan=6c07fa7320f32888 iterations=7 e_nodes=71 e_classes=35 candidates=789 matches=499 stop=Some(Saturated) before=40f1a7c000000000 after=40ea720000000000 fell_back=false size_polymorphic=true",
    "GLM.P@1 plan=540dc687b3a6e1db iterations=5 e_nodes=35 e_classes=19 candidates=327 matches=178 stop=Some(Saturated) before=40c1fb8000000000 after=40c0698000000000 fell_back=false size_polymorphic=true",
    "GLM.G@1 plan=36377f90ce24ccd8 iterations=9 e_nodes=53 e_classes=28 candidates=707 matches=449 stop=Some(Saturated) before=40c0730000000000 after=40c0730000000000 fell_back=false size_polymorphic=true",
    "GLM.w@1 plan=b5e998166909020c iterations=5 e_nodes=23 e_classes=13 candidates=184 matches=94 stop=Some(Saturated) before=405ec00000000000 after=4054800000000000 fell_back=false size_polymorphic=true",
    "GLM.obj@1 plan=23e554623141530a iterations=31 e_nodes=633 e_classes=86 candidates=14207 matches=20765 stop=Some(Saturated) before=4081200000000000 after=407c600000000000 fell_back=false size_polymorphic=true",
    "SVM.out@1 plan=a1b91ba283c0998b iterations=7 e_nodes=77 e_classes=27 candidates=669 matches=744 stop=Some(Saturated) before=40c1328000000000 after=40c0e28000000000 fell_back=false size_polymorphic=true",
    "SVM.sv@1 plan=f632e6b07bffede1 iterations=1 e_nodes=6 e_classes=6 candidates=0 matches=0 stop=Some(Saturated) before=4069200000000000 after=4069200000000000 fell_back=false size_polymorphic=true",
    "SVM.G@1 plan=7afd789562ce19b0 iterations=13 e_nodes=203 e_classes=45 candidates=2511 matches=3357 stop=Some(Saturated) before=40c0bb8000000000 after=40c0bb8000000000 fell_back=false size_polymorphic=true",
    "SVM.w@1 plan=b5e998166909020c iterations=5 e_nodes=23 e_classes=13 candidates=184 matches=94 stop=Some(Saturated) before=405ec00000000000 after=4054800000000000 fell_back=false size_polymorphic=true",
    "SVM.obj@1 plan=381785c985e9cd0e iterations=9 e_nodes=106 e_classes=34 candidates=1258 matches=1508 stop=Some(Saturated) before=407c500000000000 after=407c500000000000 fell_back=false size_polymorphic=true",
    "MLR.P@1 plan=540dc687b3a6e1db iterations=5 e_nodes=35 e_classes=19 candidates=327 matches=178 stop=Some(Saturated) before=40b4570000000000 after=40b1330000000000 fell_back=false size_polymorphic=true",
    "MLR.D@1 plan=93fe59fdd08072e4 iterations=6 e_nodes=52 e_classes=20 candidates=462 matches=415 stop=Some(Saturated) before=40cfa68000000000 after=40b06a0000000000 fell_back=false size_polymorphic=true",
    "MLR.G@1 plan=d5762818f4d45e90 iterations=3 e_nodes=13 e_classes=11 candidates=65 matches=17 stop=Some(Saturated) before=404f800000000000 after=404f800000000000 fell_back=false size_polymorphic=true",
    "MLR.w@1 plan=b5e998166909020c iterations=5 e_nodes=23 e_classes=13 candidates=184 matches=94 stop=Some(Saturated) before=404f800000000000 after=4045000000000000 fell_back=false size_polymorphic=true",
    "MLR.obj@1 plan=357d4a7f16ac770a iterations=28 e_nodes=533 e_classes=66 candidates=11339 matches=17246 stop=Some(Saturated) before=407fe00000000000 after=407a900000000000 fell_back=false size_polymorphic=true",
];

const GOLDEN_WORKLOAD: &[&str] = &[
    "ALS plan=02c88f2ff0200bff iterations=92 e_nodes=2115 e_classes=277 candidates=90968 matches=69253 region_frozen_iters=345 stop=Some(RegionsConverged) before=4104c79000000000 after=40e0556000000000 fell_back=false size_polymorphic=true",
    "PNMF plan=61670f216c689de2 iterations=16 e_nodes=487 e_classes=121 candidates=5128 matches=5358 region_frozen_iters=14 stop=Some(RegionsConverged) before=4100484800000000 after=40fafd7000000000 fell_back=false size_polymorphic=true",
    "GLM plan=84499c25ff3942be iterations=29 e_nodes=714 e_classes=124 candidates=12699 matches=16059 region_frozen_iters=71 stop=Some(RegionsConverged) before=40a1580000000000 after=4095080000000000 fell_back=false size_polymorphic=true",
    "SVM plan=b8aa33acd0ab875c iterations=14 e_nodes=395 e_classes=106 candidates=3958 matches=4165 region_frozen_iters=34 stop=Some(RegionsConverged) before=409e740000000000 after=4099700000000000 fell_back=false size_polymorphic=true",
    "MLR plan=9c86155998f18310 iterations=38 e_nodes=642 e_classes=115 candidates=14951 matches=19250 region_frozen_iters=133 stop=Some(RegionsConverged) before=409ec00000000000 after=408fc80000000000 fell_back=false size_polymorphic=true",
];

/// The request a line starts with.
fn key(line: &str) -> Option<&str> {
    line.split(' ').next()
}

/// FNV-1a over the plan text: the golden stays one line per request.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Every `(line, plan text)` of this run equals the line recorded for
/// its request; on a mismatch, print the run in the golden's format.
fn assert_recorded(golden: &[&str], got: &[(String, String)]) {
    for (line, plan) in got {
        let want = golden.iter().find(|w| key(w) == key(line));
        assert_eq!(
            want,
            Some(&line.as_str()),
            "recorded result differs; plan of this run:\n{plan}\nthis run:\n{}",
            got.iter()
                .map(|(l, _)| format!("    \"{l}\","))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

/// The five §4.2 programs at the sizes both goldens were recorded at.
fn programs() -> [workloads::Workload; 5] {
    [
        workloads::als(200, 100, 8, 7),
        workloads::pnmf(150, 120, 8, 7),
        workloads::glm(200, 40, 7),
        workloads::svm(200, 40, 7),
        workloads::mlr(200, 20, 7),
    ]
}

#[test]
fn optimize_repeats_the_recorded_plans() {
    let programs = programs();
    let optimizer = Optimizer::new(workload_optimizer_config());
    let x = Symbol::new("X");
    // (line, plan text) per comparable request
    let mut got: Vec<(String, String)> = Vec::new();
    let mut requests = 0;
    for sparsity in [0.001, 0.01, 0.1, 1.0] {
        for program in &programs {
            for (target, mut request) in statement_requests(program) {
                if let Some(meta) = request.vars.get_mut(&x) {
                    meta.sparsity = sparsity;
                }
                requests += 1;
                let o = optimizer
                    .optimize(&request.arena, request.root, &request.vars)
                    .expect("pool requests are well-shaped");
                let s = &o.saturation;
                // a saturation cut short by the wall clock (a loaded
                // host) may extract a different plan: not comparable
                if matches!(s.stop_reason, Some(spores_egraph::StopReason::TimeLimit(_))) {
                    continue;
                }
                let plan = o.arena.display(o.root);
                let line = format!(
                    "{}.{target}@{sparsity} plan={:016x} iterations={} e_nodes={} e_classes={} \
                     candidates={} matches={} stop={:?} before={:016x} after={:016x} \
                     fell_back={} size_polymorphic={}",
                    program.name,
                    fnv1a(&plan),
                    s.iterations,
                    s.e_nodes,
                    s.e_classes,
                    s.candidates_visited,
                    s.matches_found,
                    s.stop_reason,
                    o.cost_before.to_bits(),
                    o.cost_after.to_bits(),
                    o.fell_back,
                    o.size_polymorphic,
                );
                got.push((line, plan));
            }
        }
    }
    assert_eq!(requests, 88);
    assert_recorded(GOLDEN, &got);
    assert!(
        got.len() >= 80,
        "only {} of 88 saturations beat the clock",
        got.len()
    );
}

#[test]
fn optimize_workload_repeats_the_recorded_plans() {
    let optimizer = Optimizer::new(workload_optimizer_config());
    // (line, plan text) per comparable program
    let mut got: Vec<(String, String)> = Vec::new();
    for program in &programs() {
        let bundle = workload_bundle(program);
        let o = optimizer
            .optimize_workload(&bundle.expr, &bundle.vars)
            .expect("the evaluation programs are well-shaped");
        let s = &o.saturation;
        // see above: a run the wall clock cut short is not comparable
        if matches!(s.stop_reason, Some(spores_egraph::StopReason::TimeLimit(_))) {
            continue;
        }
        let plan: String = o
            .roots
            .iter()
            .map(|&(name, root)| format!("{name} = {}\n", o.arena.display(root)))
            .collect();
        let line = format!(
            "{} plan={:016x} iterations={} e_nodes={} e_classes={} candidates={} matches={} \
             region_frozen_iters={} stop={:?} before={:016x} after={:016x} fell_back={} \
             size_polymorphic={}",
            program.name,
            fnv1a(&plan),
            s.iterations,
            s.e_nodes,
            s.e_classes,
            s.candidates_visited,
            s.matches_found,
            s.region_frozen_iters,
            s.stop_reason,
            o.cost_before.to_bits(),
            o.cost_after.to_bits(),
            o.fell_back,
            o.size_polymorphic,
        );
        got.push((line, plan));
    }
    assert_recorded(GOLDEN_WORKLOAD, &got);
    assert!(
        got.len() >= 4,
        "only {} of 5 saturations beat the clock",
        got.len()
    );
}
