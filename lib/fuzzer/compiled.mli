(** Spec compilation: lower a validated {!Syzlang.Ast.spec} once into
    flat generation plans, so {!Proggen} draws arguments by dense array
    indexing instead of per-call list searches.

    Plans are pure data — all randomness stays in {!Proggen}'s walk,
    whose draw sequence is that of the per-call type walk that
    [test/test_compiled.ml] keeps as a reference. *)

(** Generation plan for one userspace value ({!Vkernel.Value.uval}). *)
type gen =
  | G_fuzz of int  (** fuzzed integer of the given bit width *)
  | G_range of int64 * int64  (** uniform in [lo, hi] *)
  | G_const of int64
  | G_flags of int64 array * int
      (** resolved flag-set values, plus the bit width for the
          occasional noise draw *)
  | G_str of string  (** fixed string literal *)
  | G_prog_str  (** the program's working string *)
  | G_buffer  (** untyped byte buffer: short fuzzed string *)
  | G_bytes of int option  (** byte array, length pre-capped at 64 *)
  | G_arr of gen * int option  (** element plan, length pre-capped at 8 *)
  | G_ptr of gen  (** pointer deref: inner value one level deeper *)
  | G_res  (** in-data resource/fd: small random int *)
  | G_comp of int  (** struct: index into {!t.comps} *)
  | G_union of int  (** union: pick one field of the {!t.comps} entry *)
  | G_zero

(** Post-pass for a len/bytesize field: overwrite field [fx_field] with
    the element count of field [fx_target] times [fx_scale] (1 for
    [len]; the target's element byte width for [bytesize]). All fixups
    read first-pass values. *)
type fixup = { fx_field : int; fx_target : int; fx_scale : int64 }

type comp_plan = {
  cp_name : string;
  cp_fields : (string * gen) array;
  cp_fixups : fixup array;
}

(** Plan for one top-level syscall argument ({!Vkernel.Machine.parg}). *)
type arg =
  | A_res of string  (** resource: wired to a producer's result index *)
  | A_fd
  | A_const of int64
  | A_fuzz of int  (** bit width *)
  | A_range of int64 * int64
  | A_str of string
  | A_rand_str
  | A_ptr of gen  (** occasionally NULL, else generated payload *)
  | A_buffer
  | A_data of gen
  | A_len
  | A_zero

type syscall_plan = { sp_args : arg array }

type t = {
  comps : comp_plan array;  (** aligned with [spec.types] *)
  plans : syscall_plan array;  (** aligned with [spec.syscalls] *)
  retypes : (string, gen) Hashtbl.t;
      (** base syscall name -> payload plan of the first matching
          syscall's first pointer argument (mutation retyping) *)
}

val const_value : Syzlang.Ast.const_ref -> int64

(** Size in bytes a value of this syzlang type occupies on the wire
    (naive C layout: sum for structs, max for unions, no padding);
    depth-capped, always at least 1. *)
val type_size : types:Syzlang.Ast.comp_def list -> Syzlang.Ast.typ -> int

(** Bytes per counted element of a [bytesize] target: element width for
    arrays, 1 for strings/buffers, the pointee's scale for pointers, the
    full type size otherwise. *)
val bytesize_scale : types:Syzlang.Ast.comp_def list -> Syzlang.Ast.typ -> int

val compile : Syzlang.Ast.spec -> t
