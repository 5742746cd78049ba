let () =
  Alcotest.run "pathmark"
    [
      ("util", Test_util.suite);
      ("bignum", Test_bignum.suite);
      ("numtheory", Test_numtheory.suite);
      ("crypto", Test_crypto.suite);
      ("codec", Test_codec.suite);
      ("harvest", Test_harvest.suite);
      ("stackvm", Test_stackvm.suite);
      ("compile", Test_compile.suite);
      ("jwm", Test_jwm.suite);
      ("gwm", Test_gwm.suite);
      ("gwm-recog", Test_gwm_recognize.suite);
      ("scheme", Test_scheme.suite);
      ("vmattacks", Test_vmattacks.suite);
      ("nativesim", Test_nativesim.suite);
      ("nwm", Test_nwm.suite);
      ("nattacks", Test_nattacks.suite);
      ("minic", Test_minic.suite);
      ("workloads", Test_workloads.suite);
      ("engine", Test_engine.suite);
      ("store", Test_store.suite);
      ("service", Test_service.suite);
      ("shard", Test_shard.suite);
      ("fault", Test_fault.suite);
      ("cfg", Test_cfg.suite);
      ("analysis", Test_analysis.suite);
      ("gattacks", Test_gattacks.suite);
      ("audit", Test_audit.suite);
      ("tournament", Test_tournament.suite);
      ("experiments", Test_experiments.suite);
      ("decoders", Test_decoders.suite);
    ]
